#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "kernel_test_util.hh"

namespace pagesim
{
namespace
{

using Outcome = MemoryManager::AccessOutcome;

TEST(MemoryManager, FirstTouchIsMinorFault)
{
    KernelHarness h;
    bool checked = false;
    ProbeActor probe(h.sim, [&](ProbeActor &self) {
        CostSink sink;
        const Outcome o =
            h.mm->access(self, h.space, h.base(), false, sink);
        EXPECT_EQ(o, Outcome::MinorFault);
        EXPECT_GE(sink.total(), h.config.costs.faultFixed);
        checked = true;
        self.finish();
    });
    probe.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    EXPECT_TRUE(checked);
    EXPECT_EQ(h.mm->stats().minorFaults, 1u);
    EXPECT_TRUE(h.space.table().at(h.base()).present());
    EXPECT_TRUE(h.space.table().at(h.base()).accessed());
}

TEST(MemoryManager, SecondTouchIsHit)
{
    KernelHarness h;
    ProbeActor probe(h.sim, [&](ProbeActor &self) {
        CostSink sink;
        h.mm->access(self, h.space, h.base(), false, sink);
        const Outcome o =
            h.mm->access(self, h.space, h.base(), true, sink);
        EXPECT_EQ(o, Outcome::Hit);
        EXPECT_TRUE(h.space.table().at(h.base()).dirty());
        self.finish();
    });
    probe.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    EXPECT_EQ(h.mm->stats().minorFaults, 1u);
}

TEST(MemoryManager, MajorFaultBlocksOnSsdAndRetrySucceeds)
{
    KernelHarness h;
    int phase = 0;
    ProbeActor probe(h.sim, [&](ProbeActor &self) {
        CostSink sink;
        if (phase == 0) {
            // Populate, then manually evict the page.
            h.mm->access(self, h.space, h.base(), true, sink);
            CostSink rsink;
            std::vector<Pfn> victims;
            // Fill enough pages that the policy can evict ours...
            // simpler: evict directly through the policy.
            const Pfn pfn = h.space.table().at(h.base()).pfn();
            const std::uint32_t shadow = h.policy->onPageRemoved(pfn);
            const SwapSlot slot = h.swap->allocate();
            h.space.table().unmapToSwap(h.base(), slot, shadow);
            h.mm->memcgOf(h.space).uncharge(h.frames.info(pfn));
            h.frames.release(pfn);
            phase = 1;
            // Now fault it back: must block on device read.
            const Outcome o =
                h.mm->access(self, h.space, h.base(), false, sink);
            EXPECT_EQ(o, Outcome::Blocked);
            self.block();
            return;
        }
        // Woken after I/O: retry must hit.
        const Outcome o =
            h.mm->access(self, h.space, h.base(), false, sink);
        EXPECT_EQ(o, Outcome::Hit);
        phase = 2;
        self.finish();
    });
    probe.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    EXPECT_EQ(phase, 2);
    EXPECT_EQ(h.mm->stats().majorFaults, 1u);
    // The swap-in took at least the device's raw service time.
    EXPECT_GE(h.sim.now(), msecs(1));
    // Swap-cache: the backing slot is retained for clean reuse.
    const Pfn pfn = h.space.table().at(h.base()).pfn();
    EXPECT_NE(h.frames.info(pfn).backing, kInvalidSlot);
}

TEST(MemoryManager, ZramFaultIsSynchronousCpuWork)
{
    KernelHarness h(64, 256, /*zram=*/true);
    ProbeActor probe(h.sim, [&](ProbeActor &self) {
        CostSink sink;
        h.mm->access(self, h.space, h.base(), true, sink);
        const Pfn pfn = h.space.table().at(h.base()).pfn();
        const std::uint32_t shadow = h.policy->onPageRemoved(pfn);
        const SwapSlot slot = h.swap->allocate();
        h.swap->recordContents(slot, 1);
        h.space.table().unmapToSwap(h.base(), slot, shadow);
        h.mm->memcgOf(h.space).uncharge(h.frames.info(pfn));
        h.frames.release(pfn);
        sink.take();
        const Outcome o =
            h.mm->access(self, h.space, h.base(), false, sink);
        EXPECT_EQ(o, Outcome::SyncFault);
        // Decompression cost landed in the sink (>= ~0.5x nominal).
        EXPECT_GE(sink.total(), usecs(10));
        self.finish();
    });
    probe.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    EXPECT_EQ(h.mm->stats().majorFaults, 1u);
    EXPECT_EQ(h.device->stats().reads, 1u);
}

TEST(MemoryManager, DuplicateFaultWaitsOnExistingIo)
{
    KernelHarness h;
    // Two actors fault the same swapped-out page; only one read goes
    // to the device.
    Vpn target = h.base();
    // Set up a swapped-out PTE directly.
    {
        const auto pte = h.space.table().at(target);
        const SwapSlot slot = h.swap->allocate();
        // lint:pte-direct-ok(fixture seeds a swapped-out PTE from the
        // never-mapped state, which touches no tracked bitmap; the
        // PageTable mutator asserts present() and cannot express this)
        pte.unmapToSwap(slot, 0);
    }
    int hits = 0;
    auto script = [&](ProbeActor &self) {
        CostSink sink;
        const Outcome o =
            h.mm->access(self, h.space, target, false, sink);
        if (o == Outcome::Blocked) {
            self.block();
            return;
        }
        EXPECT_EQ(o, Outcome::Hit);
        ++hits;
        self.finish();
    };
    ProbeActor a(h.sim, script), b(h.sim, script);
    a.start();
    b.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    EXPECT_EQ(hits, 2);
    EXPECT_EQ(h.device->stats().reads, 1u) << "one I/O, two waiters";
    EXPECT_EQ(h.mm->stats().majorFaults, 1u);
    EXPECT_EQ(h.mm->stats().ioWaitFaults, 1u);
}

TEST(MemoryManager, IoWaitersWakeInRegistrationOrderAndAuditInKeyOrder)
{
    MultiKernelHarness h(std::vector<MultiKernelHarness::TenantSetup>(2));
    AddressSpace &s0 = *h.spaces[0];
    AddressSpace &s1 = *h.spaces[1];
    // Three swapped-out pages, far enough apart that no readahead
    // window reaches from one to another.
    const Vpn p0 = h.base(0) + 2;
    const Vpn q0 = h.base(0) + 60;
    const Vpn p1 = h.base(1) + 30;
    for (const auto &[space, vpn] :
         {std::pair{&s0, p0}, std::pair{&s0, q0}, std::pair{&s1, p1}}) {
        // lint:pte-direct-ok(seeds a swapped-out PTE from the
        // never-mapped state; no tracked bitmap is touched and the
        // PageTable mutator asserts present())
        space->table().at(vpn).unmapToSwap(h.swap->allocate(), 0);
    }

    // Registration order p1, p0 (c's demand read), p0 (a waits on
    // it), q0; the audit walk must still see (space id, vpn) order.
    std::vector<char> p0_wakes;
    std::vector<std::tuple<std::uint32_t, Vpn, std::size_t>> audit;
    const auto actor = [&](char name, AddressSpace &space, Vpn vpn) {
        return [&, name, vpn](ProbeActor &self) {
            CostSink sink;
            const Outcome o = h.mm->access(self, space, vpn, false, sink);
            if (o == Outcome::Blocked) {
                if (name == 'd')
                    h.mm->forEachIoWaiter(
                        [&](const AddressSpace &sp, Vpn v, std::size_t n) {
                            audit.emplace_back(sp.id(), v, n);
                        });
                self.block();
                return;
            }
            if (vpn == p0)
                p0_wakes.push_back(name);
            self.finish();
        };
    };
    ProbeActor a(h.sim, actor('a', s0, p0));
    ProbeActor b(h.sim, actor('b', s1, p1));
    ProbeActor c(h.sim, actor('c', s0, p0));
    ProbeActor d(h.sim, actor('d', s0, q0));
    b.start();
    c.start();
    a.start();
    d.start();
    EXPECT_TRUE(h.sim.runToCompletion());

    using Key = std::tuple<std::uint32_t, Vpn, std::size_t>;
    EXPECT_EQ(audit, (std::vector<Key>{
                         {0, p0, 2}, {0, q0, 1}, {1, p1, 1}}));
    EXPECT_EQ(p0_wakes, (std::vector<char>{'c', 'a'}));
    EXPECT_EQ(h.mm->stats().ioWaitFaults, 1u);
    EXPECT_TRUE(h.mm->quiescentForCheckpoint());
}

TEST(MemoryManager, ReadaheadPullsNeighborSlots)
{
    KernelHarness h(64, 256);
    // Swap out a run of pages at base..base+7.
    for (Vpn v = h.base(); v < h.base() + 8; ++v) {
        const auto pte = h.space.table().at(v);
        // lint:pte-direct-ok(seeds swapped-out PTEs from the
        // never-mapped state; no tracked bitmap is touched and the
        // PageTable mutator asserts present())
        pte.unmapToSwap(h.swap->allocate(), 0);
    }
    ProbeActor probe(h.sim, [&](ProbeActor &self) {
        CostSink sink;
        const Outcome o =
            h.mm->access(self, h.space, h.base(), false, sink);
        if (o == Outcome::Blocked) {
            self.block();
            return;
        }
        self.finish();
    });
    probe.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    // One demand read plus readahead for neighbors.
    EXPECT_GT(h.device->stats().reads, 1u);
    EXPECT_EQ(h.mm->stats().majorFaults, 1u);
    EXPECT_GT(h.mm->stats().readaheadReads, 0u);
    // Neighbor pages are resident but NOT marked accessed.
    EXPECT_TRUE(h.space.table().at(h.base() + 1).present());
    EXPECT_FALSE(h.space.table().at(h.base() + 1).accessed());
}

TEST(MemoryManager, NoReadaheadOnZram)
{
    KernelHarness h(64, 256, /*zram=*/true);
    h.config.readaheadPages = 1; // as the harness sets for zram
    for (Vpn v = h.base(); v < h.base() + 8; ++v) {
        const auto pte = h.space.table().at(v);
        // lint:pte-direct-ok(seeds swapped-out PTEs from the
        // never-mapped state; no tracked bitmap is touched and the
        // PageTable mutator asserts present())
        pte.unmapToSwap(h.swap->allocate(), 0);
        h.swap->recordContents(pte.swapSlot(), v);
    }
    ProbeActor probe(h.sim, [&](ProbeActor &self) {
        CostSink sink;
        h.mm->access(self, h.space, h.base(), false, sink);
        self.finish();
    });
    probe.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    EXPECT_EQ(h.device->stats().reads, 1u);
}

TEST(MemoryManager, CleanPageEvictsWithoutWriteback)
{
    KernelHarness h;
    // Fault a page in from swap (clean), then evict it again: the
    // retained backing slot means no write I/O.
    Vpn target = h.base();
    {
        const auto pte = h.space.table().at(target);
        // lint:pte-direct-ok(seeds a swapped-out PTE from the
        // never-mapped state; no tracked bitmap is touched and the
        // PageTable mutator asserts present())
        pte.unmapToSwap(h.swap->allocate(), 0);
    }
    ProbeActor probe(h.sim, [&](ProbeActor &self) {
        CostSink sink;
        const Outcome o =
            h.mm->access(self, h.space, target, false, sink);
        if (o == Outcome::Blocked) {
            self.block();
            return;
        }
        // Clear the accessed bit so eviction doesn't promote it.
        h.space.table().clearAccessed(target);
        self.finish();
    });
    probe.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    const std::uint64_t writes_before = h.device->stats().writes;
    // Force reclaim of everything evictable.
    CostSink sink;
    while (h.mm->reclaimBatch(sink, true) > 0) {
    }
    h.sim.events().run();
    EXPECT_EQ(h.device->stats().writes, writes_before)
        << "clean swap-cache page must drop without writeback";
    EXPECT_GT(h.mm->stats().cleanDrops, 0u);
}

TEST(MemoryManager, DirtyPageWritesBackOnEviction)
{
    KernelHarness h;
    ProbeActor probe(h.sim, [&](ProbeActor &self) {
        CostSink sink;
        h.mm->access(self, h.space, h.base(), /*write=*/true, sink);
        h.space.table().clearAccessed(h.base());
        self.finish();
    });
    probe.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    CostSink sink;
    h.mm->reclaimBatch(sink, true);
    h.sim.events().run();
    EXPECT_EQ(h.device->stats().writes, 1u);
    EXPECT_EQ(h.mm->stats().dirtyWritebacks, 1u);
    EXPECT_TRUE(h.space.table().at(h.base()).swapped());
    EXPECT_EQ(h.frames.freeFrames(), h.frames.totalFrames());
}

} // namespace
} // namespace pagesim
