/**
 * @file
 * Tests for the TPP-style tiered-memory extension: demotion instead
 * of swap, slow-tier access latency, promotion of hot pages, slow-tier
 * overflow to swap, and writeback remap back into the slow tier.
 */

#include <gtest/gtest.h>

#include <vector>

#include "kernel_test_util.hh"

namespace pagesim
{
namespace
{

using Outcome = MemoryManager::AccessOutcome;

/** A harness with a slow tier attached. */
struct TieredHarness : KernelHarness
{
    explicit
    TieredHarness(std::uint32_t fast = 32, std::uint32_t slow = 16)
        : KernelHarness(fast, 512)
    {
        MmConfig cfg = config;
        cfg.tier.slowFrames = slow;
        cfg.tier.promoteThreshold = 2;
        cfg.reclaimBatch = 8; // keep one batch within the slow tier
        cfg.directReclaimBelow = 0; // reclaim only when truly empty
        config = cfg;
        mm = std::make_unique<MemoryManager>(
            sim, frames, *swap,
            std::vector<MemcgSpec>{{MemcgConfig{}, policy.get()}}, cfg);
        // The base-class auditor was bound to the replaced manager;
        // re-attach to the tiered one.
        auditor = std::make_unique<MmAuditor>(
            *mm, std::vector<const AddressSpace *>{&space});
        auditor->installPeriodic(/*hard_fail=*/true);
    }
};

/** Populate @p n fast-tier pages and clear their accessed bits. */
void
fill(TieredHarness &h, std::uint64_t n)
{
    ProbeActor probe(h.sim, [&](ProbeActor &self) {
        CostSink sink;
        for (Vpn v = h.base(); v < h.base() + n; ++v) {
            const Outcome o =
                h.mm->access(self, h.space, v, true, sink);
            if (o == Outcome::Blocked) {
                self.block();
                return;
            }
            h.space.table().clearAccessed(v);
        }
        self.finish();
    });
    probe.start();
    ASSERT_TRUE(h.sim.runToCompletion(20000000));
}

TEST(TieredMemory, ReclaimDemotesInsteadOfSwapping)
{
    TieredHarness h;
    fill(h, 24);
    CostSink sink;
    h.mm->reclaimBatch(sink, true);
    h.sim.events().run();
    EXPECT_GT(h.mm->tierStats().demotions, 0u);
    EXPECT_EQ(h.device->stats().writes, 0u)
        << "demotion is a migration, not swap I/O";
    EXPECT_GT(h.mm->slowFrames().usedFrames(), 0u);
    // Demoted pages remain present (mapped) in their PTEs.
    std::uint64_t slow_present = 0;
    for (Vpn v = h.base(); v < h.base() + 24; ++v) {
        const auto pte = h.space.table().at(v);
        if (pte.present() && pte.slow())
            ++slow_present;
    }
    EXPECT_EQ(slow_present, h.mm->tierStats().demotions);
}

TEST(TieredMemory, SlowAccessIsHitWithLatency)
{
    TieredHarness h;
    fill(h, 24);
    CostSink rsink;
    h.mm->reclaimBatch(rsink, true);
    // Find a demoted page.
    Vpn slow_vpn = 0;
    for (Vpn v = h.base(); v < h.base() + 24; ++v)
        if (h.space.table().at(v).slow())
            slow_vpn = v;
    ASSERT_NE(slow_vpn, 0u);

    ProbeActor probe(h.sim, [&](ProbeActor &self) {
        CostSink sink;
        const Outcome o =
            h.mm->access(self, h.space, slow_vpn, false, sink);
        EXPECT_EQ(o, Outcome::Hit) << "slow tier access is no fault";
        EXPECT_GE(sink.total(), h.config.tier.slowAccessLatency);
        self.finish();
    });
    probe.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    EXPECT_GT(h.mm->tierStats().slowHits, 0u);
    EXPECT_EQ(h.mm->stats().majorFaults, 0u);
}

TEST(TieredMemory, HotSlowPagesGetPromoted)
{
    TieredHarness h;
    fill(h, 24);
    CostSink rsink;
    h.mm->reclaimBatch(rsink, true);
    Vpn slow_vpn = 0;
    for (Vpn v = h.base(); v < h.base() + 24; ++v)
        if (h.space.table().at(v).slow())
            slow_vpn = v;
    ASSERT_NE(slow_vpn, 0u);

    ProbeActor probe(h.sim, [&](ProbeActor &self) {
        CostSink sink;
        // promoteThreshold = 2: two touches bring it home.
        h.mm->access(self, h.space, slow_vpn, false, sink);
        h.mm->access(self, h.space, slow_vpn, false, sink);
        self.finish();
    });
    probe.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    EXPECT_GT(h.mm->tierStats().promotions, 0u);
    const auto pte = h.space.table().at(slow_vpn);
    EXPECT_TRUE(pte.present());
    EXPECT_FALSE(pte.slow()) << "promoted back to fast memory";
}

TEST(TieredMemory, SlowTierOverflowsToSwap)
{
    TieredHarness h(32, 8); // tiny slow tier
    fill(h, 30);
    CostSink sink;
    // Repeated reclaim pushes more pages than the slow tier holds.
    for (int i = 0; i < 4; ++i) {
        h.mm->reclaimBatch(sink, true);
        h.sim.events().run();
    }
    EXPECT_GT(h.mm->tierStats().slowEvictions, 0u)
        << "FIFO tail of the slow tier goes to swap";
    EXPECT_GT(h.device->stats().writes, 0u);
    EXPECT_LE(h.mm->slowFrames().usedFrames(), 8u);
}

/** Slow-tier frames whose pages are under SSD writeback. */
std::vector<Pfn>
slowFramesUnderWriteback(const TieredHarness &h)
{
    std::vector<Pfn> out;
    const FrameTable &slow = h.mm->slowFrames();
    for (Pfn pfn = 0; pfn < slow.totalFrames(); ++pfn) {
        const auto pi = slow.info(pfn);
        if (!pi.free() && pi.space->table().at(pi.vpn).inIo())
            out.push_back(pfn);
    }
    return out;
}

/**
 * Fill fast memory with dirty pages, then reclaim (without running
 * the event queue) until a slow-tier page's writeback is in flight.
 */
std::vector<Pfn>
startSlowWritebacks(TieredHarness &h)
{
    fill(h, 30);
    CostSink sink;
    for (int i = 0; i < 8; ++i) {
        h.mm->reclaimBatch(sink, true);
        std::vector<Pfn> busy = slowFramesUnderWriteback(h);
        if (!busy.empty())
            return busy;
    }
    return {};
}

TEST(TieredMemory, SlowWritebackRemapsOrReleasesSlowFrame)
{
    // Re-accessed before the write lands: the waiter gets the slow
    // frame back (swap-cache reuse), still in the slow tier.
    {
        TieredHarness h(32, 8);
        const std::vector<Pfn> busy = startSlowWritebacks(h);
        ASSERT_FALSE(busy.empty());
        const Pfn spfn = busy.front();
        const Vpn vpn = h.mm->slowFrames().info(spfn).vpn;
        const auto pte = h.space.table().at(vpn);
        ASSERT_TRUE(pte.swapped() && pte.inIo() && !pte.present());
        const SwapSlot slot = pte.swapSlot();
        const std::uint64_t remaps = h.mm->stats().writebackRemaps;

        bool waited = false;
        ProbeActor probe(h.sim, [&](ProbeActor &self) {
            if (!waited) {
                CostSink sink;
                waited = true;
                EXPECT_EQ(h.mm->access(self, h.space, vpn, false, sink),
                          Outcome::Blocked);
                self.block();
                return;
            }
            self.finish();
        });
        probe.start();
        ASSERT_TRUE(h.sim.runToCompletion(20000000));

        EXPECT_EQ(h.mm->stats().writebackRemaps, remaps + 1);
        EXPECT_TRUE(pte.present());
        EXPECT_TRUE(pte.slow()) << "remapped back into the slow tier";
        EXPECT_FALSE(pte.inIo());
        EXPECT_EQ(pte.pfn(), spfn);
        const auto pi = h.mm->slowFrames().info(spfn);
        EXPECT_EQ(pi.listId, h.mm->slowList().listId())
            << "back on the slow tier's FIFO";
        EXPECT_EQ(pi.backing, slot) << "swap copy kept for a clean drop";
    }
    // Not re-accessed: the write lands and the slow frame is freed.
    {
        TieredHarness h(32, 8);
        const std::vector<Pfn> busy = startSlowWritebacks(h);
        ASSERT_FALSE(busy.empty());
        const std::uint32_t used = h.mm->slowFrames().usedFrames();
        std::vector<Vpn> vpns;
        for (Pfn spfn : busy)
            vpns.push_back(h.mm->slowFrames().info(spfn).vpn);

        h.sim.events().run();

        EXPECT_EQ(h.mm->slowFrames().usedFrames(), used - busy.size());
        for (Pfn spfn : busy)
            EXPECT_TRUE(h.mm->slowFrames().info(spfn).free());
        for (Vpn vpn : vpns) {
            const auto pte = h.space.table().at(vpn);
            EXPECT_TRUE(pte.swapped());
            EXPECT_FALSE(pte.present() || pte.inIo());
        }
    }
}

TEST(TieredMemory, DisabledTierKeepsLegacyBehavior)
{
    KernelHarness h(32, 512); // plain harness: tier.slowFrames == 0
    ProbeActor probe(h.sim, [&](ProbeActor &self) {
        CostSink sink;
        for (Vpn v = h.base(); v < h.base() + 28; ++v) {
            h.mm->access(self, h.space, v, true, sink);
            h.space.table().clearAccessed(v);
        }
        self.finish();
    });
    probe.start();
    ASSERT_TRUE(h.sim.runToCompletion(20000000));
    CostSink sink;
    h.mm->reclaimBatch(sink, true);
    h.sim.events().run();
    EXPECT_EQ(h.mm->tierStats().demotions, 0u);
    EXPECT_GT(h.device->stats().writes, 0u) << "straight to swap";
}

TEST(TieredMemory, EndToEndUnderPressure)
{
    // A sweep larger than fast+slow: all three levels in play.
    TieredHarness h(48, 32);
    struct
    {
        int round = 0;
        Vpn v = 0;
    } st;
    ProbeActor probe(h.sim, [&, &round = st.round,
                             &v = st.v](ProbeActor &self) {
        CostSink sink;
        while (round < 3) {
            while (v < 120) {
                // Cold sweep page (distance > fast+slow: overflows
                // the slow tier) ...
                const Outcome o = h.mm->access(
                    self, h.space, h.base() + v, true, sink);
                if (o == Outcome::Blocked) {
                    self.block();
                    return;
                }
                // ... plus a short-distance warm page that gets
                // demoted and re-touched while still in the slow
                // tier.
                const Outcome o2 = h.mm->access(
                    self, h.space, h.base() + 200 + (v % 24), false,
                    sink);
                if (o2 == Outcome::Blocked) {
                    self.block();
                    return;
                }
                ++v;
                if (sink.total() > usecs(50)) {
                    self.yieldAfter(sink.take());
                    return;
                }
            }
            v = 0;
            ++round;
        }
        self.finish();
    });
    probe.start();
    ASSERT_TRUE(h.sim.runToCompletion(100000000));
    EXPECT_GT(h.mm->tierStats().demotions, 0u);
    EXPECT_GT(h.mm->tierStats().slowEvictions, 0u);
    EXPECT_GT(h.mm->tierStats().slowHits, 0u);
    // Frame conservation across all three levels.
    EXPECT_LE(h.frames.usedFrames(), h.frames.totalFrames());
    EXPECT_LE(h.mm->slowFrames().usedFrames(), 32u);
}

} // namespace
} // namespace pagesim
