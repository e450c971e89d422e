/**
 * @file
 * Mutation tests for the cross-layer MM invariant auditor: seed one
 * corruption of each invariant class into a healthy machine and assert
 * the auditor detects it with a structured report naming the right
 * invariant and location. A clean machine must audit clean — these
 * tests are what make the "auditor on in CI" guarantee meaningful.
 */

#include <gtest/gtest.h>

#include "../kernel/kernel_test_util.hh"
#include "policy/mglru/mglru_policy.hh"

namespace pagesim
{
namespace
{

using Outcome = MemoryManager::AccessOutcome;

/**
 * Touch @p n pages (writes) so the machine builds up resident pages,
 * swapped pages, backing slots, and policy list state.
 */
void
populate(KernelHarness &h, std::uint64_t n)
{
    Vpn next = h.base();
    ProbeActor probe(h.sim, [&](ProbeActor &self) {
        CostSink sink;
        while (next < h.base() + n) {
            const Outcome o =
                h.mm->access(self, h.space, next, true, sink);
            if (o == Outcome::Blocked) {
                self.block();
                return;
            }
            ++next;
        }
        self.finish();
    });
    probe.start();
    ASSERT_TRUE(h.sim.runToCompletion(50000000));
}

/** First VPN in [base, base+n) whose PTE satisfies @p pred. */
template <typename Pred>
Vpn
findVpn(KernelHarness &h, std::uint64_t n, Pred pred)
{
    for (Vpn v = h.base(); v < h.base() + n; ++v)
        if (pred(h.space.table().at(v)))
            return v;
    return AuditViolation::kNoVpn;
}

TEST(MmAudit, CleanMachineAuditsClean)
{
    KernelHarness h(64, 256);
    populate(h, 96); // overcommit: forces reclaim and swap traffic
    const AuditReport rep = h.auditor->audit();
    EXPECT_TRUE(rep.clean()) << rep.toString();
    // The walk actually covered the machine.
    EXPECT_GT(rep.ptesWalked, 0u);
    EXPECT_EQ(rep.framesWalked, h.frames.totalFrames());
    EXPECT_GT(rep.slotsChecked, 0u);
    EXPECT_GT(rep.listsWalked, 0u);
    EXPECT_EQ(rep.auditSeq, h.auditor->auditsRun());
}

TEST(MmAudit, DetectsRmapBackPointerCorruption)
{
    KernelHarness h(64, 256);
    populate(h, 96);
    const Vpn v = findVpn(h, 96, [](PteView p) {
        return p.present() && !p.slow();
    });
    ASSERT_NE(v, AuditViolation::kNoVpn);
    const Pfn pfn = h.space.table().at(v).pfn();
    h.frames.info(pfn).vpn += 1; // break the reverse map

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("present-rmap-mismatch"))
        << rep.toString();
    EXPECT_GE(rep.countFor(AuditSubsystem::Pte), 1u);
    // The report pinpoints the corrupted mapping.
    bool located = false;
    for (const AuditViolation &viol : rep.violations) {
        if (viol.invariant == "present-rmap-mismatch") {
            EXPECT_EQ(viol.spaceId, h.space.id());
            EXPECT_EQ(viol.vpn, v);
            EXPECT_EQ(viol.pfn, pfn);
            located = true;
        }
    }
    EXPECT_TRUE(located);

    h.frames.info(pfn).vpn -= 1; // heal for teardown
}

TEST(MmAudit, DetectsSharedSwapSlot)
{
    KernelHarness h(64, 256);
    populate(h, 96);
    const Vpn v1 = findVpn(h, 96, [](PteView p) {
        return p.swapped() && !p.inIo();
    });
    ASSERT_NE(v1, AuditViolation::kNoVpn);
    const Vpn v2 = findVpn(h, 96, [&](PteView p) {
        return p.swapped() && !p.inIo() &&
               p.swapSlot() != h.space.table().at(v1).swapSlot();
    });
    ASSERT_NE(v2, AuditViolation::kNoVpn);
    // Point the second page at the first page's slot: two PTEs now
    // share one slot, and the second page's own slot leaks.
    h.space.table().at(v2).unmapToSwap(
        h.space.table().at(v1).swapSlot(), 0);

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("slot-shared")) << rep.toString();
    EXPECT_TRUE(rep.hasInvariant("slot-leak")) << rep.toString();
    EXPECT_GE(rep.countFor(AuditSubsystem::Swap), 2u);
}

TEST(MmAudit, DetectsUnallocatedSlotReference)
{
    KernelHarness h(64, 256);
    populate(h, 96);
    const Vpn v = findVpn(h, 96, [](PteView p) {
        return p.swapped() && !p.inIo();
    });
    ASSERT_NE(v, AuditViolation::kNoVpn);
    h.space.table().at(v).unmapToSwap(h.swap->slotHighWater() + 5, 0);

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("swapped-slot-not-allocated"))
        << rep.toString();
    EXPECT_TRUE(rep.hasInvariant("referenced-slot-not-allocated"))
        << rep.toString();
}

TEST(MmAudit, DetectsSpuriousInIoFlag)
{
    KernelHarness h(64, 256);
    populate(h, 96);
    const Vpn v = findVpn(h, 96, [](PteView p) {
        return p.swapped() && !p.inIo();
    });
    ASSERT_NE(v, AuditViolation::kNoVpn);
    h.space.table().at(v).setFlag(Pte::InIo);

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    // No in-flight op backs this PTE: the global reconciliation and
    // the per-page frame-claim check both fire.
    EXPECT_TRUE(rep.hasInvariant("inio-flight-mismatch"))
        << rep.toString();
    EXPECT_TRUE(rep.hasInvariant("inio-frame-claims"))
        << rep.toString();
    EXPECT_GE(rep.countFor(AuditSubsystem::Waiters), 2u);

    h.space.table().at(v).clearFlag(Pte::InIo);
}

TEST(MmAudit, DetectsReadaheadCreditOnAccessedPte)
{
    KernelHarness h(64, 256);
    populate(h, 32);
    const Vpn v = findVpn(h, 32, [](PteView p) {
        return p.present() && !p.slow() && p.accessed();
    });
    ASSERT_NE(v, AuditViolation::kNoVpn);
    const Pfn pfn = h.space.table().at(v).pfn();
    // access() would take its PTE-only hit path here and never clear
    // the credit, so the readahead hit would go uncounted.
    h.frames.info(pfn).fromReadahead = 1;

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    bool located = false;
    for (const AuditViolation &viol : rep.violations) {
        if (viol.invariant == "readahead-credit-on-accessed-pte") {
            EXPECT_EQ(viol.subsystem, AuditSubsystem::Pte);
            EXPECT_EQ(viol.spaceId, h.space.id());
            EXPECT_EQ(viol.vpn, v);
            EXPECT_EQ(viol.pfn, pfn);
            located = true;
        }
    }
    EXPECT_TRUE(located) << rep.toString();

    h.frames.info(pfn).fromReadahead = 0;
    EXPECT_TRUE(h.auditor->audit().clean());
}

TEST(MmAudit, DetectsListMembershipCorruption)
{
    KernelHarness h(64, 256);
    populate(h, 96);
    const Vpn v = findVpn(h, 96, [](PteView p) {
        return p.present() && !p.slow();
    });
    ASSERT_NE(v, AuditViolation::kNoVpn);
    const Pfn pfn = h.space.table().at(v).pfn();
    const auto pi = h.frames.info(pfn);
    ASSERT_NE(pi.listId, 0); // resident pages are policy-tracked
    const std::uint8_t saved = pi.listId;
    // lint:pageinfo-direct-ok(deliberate desync: frame claims to be on no list, links say otherwise)
    pi.listId = 0;

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("list-links-corrupt"))
        << rep.toString();

    // lint:pageinfo-direct-ok(undo the deliberate corruption above)
    pi.listId = saved;
}

TEST(MmAudit, DetectsGenerationOutOfRange)
{
    KernelHarness h(64, 256, /*zram=*/false, PolicyKind::MgLru);
    populate(h, 96);
    auto *mg = dynamic_cast<MgLruPolicy *>(h.policy.get());
    ASSERT_NE(mg, nullptr);
    const Vpn v = findVpn(h, 96, [](PteView p) {
        return p.present() && !p.slow();
    });
    ASSERT_NE(v, AuditViolation::kNoVpn);
    const auto pi = h.frames.info(h.space.table().at(v).pfn());
    const std::uint64_t saved = pi.gen;
    pi.gen = mg->maxSeq() + 10;

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("gen-out-of-range")) << rep.toString();
    EXPECT_GE(rep.countFor(AuditSubsystem::Policy), 1u);

    pi.gen = saved;
}

TEST(MmAudit, DetectsPresentBitmapDesync)
{
    KernelHarness h(64, 256);
    populate(h, 32);
    const Vpn v = findVpn(h, 32, [](PteView p) {
        return p.present();
    });
    ASSERT_NE(v, AuditViolation::kNoVpn);
    // Flag cleared behind the table's back: the present bitmap word
    // still has the bit.
    h.space.table().at(v).clearFlag(Pte::Present);

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("present-bitmap-mismatch"))
        << rep.toString();

    h.space.table().at(v).setFlag(Pte::Present);
}

TEST(MmAudit, DetectsAccessedBitmapDesync)
{
    KernelHarness h(64, 256);
    populate(h, 32);
    const Vpn v = findVpn(h, 32, [](PteView p) {
        return p.present();
    });
    ASSERT_NE(v, AuditViolation::kNoVpn);
    h.space.table().setAccessed(v);
    // A scan reading the accessed word would still see this page as
    // young after the flag was dropped directly on the PTE.
    h.space.table().at(v).clearFlag(Pte::Accessed);

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("accessed-bitmap-mismatch"))
        << rep.toString();

    h.space.table().at(v).setFlag(Pte::Accessed);
}

TEST(MmAudit, DetectsMappedBitmapDesync)
{
    KernelHarness h(64, 256);
    populate(h, 32);
    const Vpn v = findVpn(h, 32, [](PteView p) {
        return p.mapped() && p.present();
    });
    ASSERT_NE(v, AuditViolation::kNoVpn);
    h.space.table().at(v).clearFlag(Pte::Mapped);

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("mapped-bitmap-mismatch"))
        << rep.toString();

    h.space.table().at(v).setFlag(Pte::Mapped);
}

TEST(MmAudit, DetectsSummaryBitmapDesync)
{
    KernelHarness h(64, 256);
    populate(h, 32); // only the first region gains present pages
    // A mapped-but-untouched VPN two regions past the populated span:
    // its region's summary bit is clear, so the aging walk would skip
    // the region wholesale.
    const Vpn v = h.base() + 2 * kPtesPerRegion;
    ASSERT_TRUE(h.space.table().at(v).mapped());
    ASSERT_FALSE(h.space.table().at(v).present());
    ASSERT_FALSE(h.space.table().anyPresent(v / kPtesPerRegion));
    // Residency granted behind the table's back: the summary bitmap
    // and the per-word bitmap both go stale at once.
    h.space.table().at(v).mapFrame(0);

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("present-summary-mismatch"))
        << rep.toString();
    EXPECT_TRUE(rep.hasInvariant("present-bitmap-mismatch"))
        << rep.toString();

    h.space.table().at(v).unmapDiscard(0);
}

TEST(MmAudit, DetectsFrameLeak)
{
    KernelHarness h(64, 256);
    populate(h, 96);
    const Vpn v = findVpn(h, 96, [](PteView p) {
        return p.present() && !p.slow();
    });
    ASSERT_NE(v, AuditViolation::kNoVpn);
    const auto pi = h.frames.info(h.space.table().at(v).pfn());
    AddressSpace *saved = pi.space;
    pi.space = nullptr; // "free" frame that is on no free list

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("free-list-membership"))
        << rep.toString();
    EXPECT_GE(rep.countFor(AuditSubsystem::Frame), 1u);

    pi.space = saved;
}

TEST(MmAudit, DetectsSlotLeak)
{
    KernelHarness h(64, 256);
    populate(h, 96);
    // Allocate a slot nobody references.
    ASSERT_NE(h.swap->allocate(), kInvalidSlot);

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("slot-leak")) << rep.toString();
}

TEST(MmAudit, DetectsZramTagMismatch)
{
    KernelHarness h(64, 256, /*zram=*/true);
    populate(h, 96);
    const Vpn v = findVpn(h, 96, [](PteView p) {
        return p.swapped() && !p.inIo();
    });
    ASSERT_NE(v, AuditViolation::kNoVpn);
    const SwapSlot slot = h.space.table().at(v).swapSlot();
    // Stale-contents bug: the slot records some other page's bytes.
    h.swap->recordContents(slot, 0xdeadbeefull);

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("swapped-slot-tag-mismatch"))
        << rep.toString();
    EXPECT_GE(rep.countFor(AuditSubsystem::Zram), 1u);

    h.swap->recordContents(slot, MemoryManager::contentTag(h.space, v));
}

TEST(MmAudit, DetectsZramPoolCorruption)
{
    KernelHarness h(64, 256, /*zram=*/true);
    populate(h, 96);
    const Vpn v = findVpn(h, 96, [](PteView p) {
        return p.swapped() && !p.inIo();
    });
    ASSERT_NE(v, AuditViolation::kNoVpn);
    const SwapSlot slot = h.space.table().at(v).swapSlot();
    auto *zram = dynamic_cast<ZramSwapDevice *>(h.device.get());
    ASSERT_NE(zram, nullptr);
    zram->dropSlot(slot); // allocated slot loses its contents

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("swapped-slot-untagged"))
        << rep.toString();

    h.swap->recordContents(slot, MemoryManager::contentTag(h.space, v));
}

TEST(MmAudit, DetectsSlowTierCorruption)
{
    // A machine with a slow tier, demoted pages on the FIFO.
    KernelHarness h(32, 512);
    MmConfig cfg = h.config;
    cfg.tier.slowFrames = 16;
    cfg.reclaimBatch = 8;
    cfg.directReclaimBelow = 0;
    h.config = cfg;
    h.mm = std::make_unique<MemoryManager>(
        h.sim, h.frames, *h.swap,
        std::vector<MemcgSpec>{{MemcgConfig{}, h.policy.get()}}, cfg);
    h.auditor = std::make_unique<MmAuditor>(
        *h.mm, std::vector<const AddressSpace *>{&h.space});
    populate(h, 24);
    CostSink sink;
    h.mm->reclaimBatch(sink, true);
    h.sim.events().run();
    ASSERT_GT(h.mm->tierStats().demotions, 0u);
    ASSERT_TRUE(h.auditor->audit().clean());

    const Vpn v = findVpn(h, 24, [](PteView p) {
        return p.present() && p.slow();
    });
    ASSERT_NE(v, AuditViolation::kNoVpn);
    // Lost-flag bug: the page is in the slow tier but its PTE no
    // longer says so.
    h.space.table().at(v).clearFlag(Pte::Slow);

    const AuditReport rep = h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    // The PTE now reads as a fast-tier mapping of a bogus frame, and
    // the slow frame has no Slow PTE pointing at it.
    EXPECT_GE(rep.countFor(AuditSubsystem::SlowTier), 1u);
    EXPECT_TRUE(rep.hasInvariant("slow-frame-rmap-mismatch") ||
                rep.hasInvariant("slow-pte-frame-count-mismatch"))
        << rep.toString();

    h.space.table().at(v).setFlag(Pte::Slow);
}

TEST(MmAudit, PeriodicHookFiresEveryBatchAndStaysClean)
{
    KernelHarness h(64, 256); // harness installs auditEvery=1 hard-fail
    populate(h, 128);         // heavy overcommit: many reclaim batches
    EXPECT_GT(h.mm->reclaimBatches(), 0u);
    // Hard-fail mode: reaching this line means every periodic audit
    // during the run was clean.
    EXPECT_GE(h.auditor->auditsRun(), h.mm->reclaimBatches());
    EXPECT_EQ(h.auditor->violationsSeen(), 0u);
}

/** Two-tenant machine with both tenants' pages resident. */
struct TwoTenantFixture
{
    MultiKernelHarness h;

    TwoTenantFixture()
        : h([] {
              MultiKernelHarness::TenantSetup a;
              a.config.name = "a";
              MultiKernelHarness::TenantSetup b;
              b.config.name = "b";
              return std::vector<MultiKernelHarness::TenantSetup>{a, b};
          }(),
            /*nframes=*/256)
    {
        for (std::size_t t = 0; t < 2; ++t) {
            Vpn next = h.base(t);
            ProbeActor probe(h.sim, [&](ProbeActor &self) {
                CostSink sink;
                while (next < h.base(t) + 32) {
                    const Outcome o = h.mm->access(
                        self, *h.spaces[t], next, true, sink);
                    if (o == Outcome::Blocked) {
                        self.block();
                        return;
                    }
                    ++next;
                }
                self.finish();
            });
            probe.start();
            EXPECT_TRUE(h.sim.runToCompletion(50000000));
        }
    }

    /** A resident fast-tier frame belonging to tenant @p t. */
    Pfn
    residentFrame(std::size_t t) const
    {
        for (Vpn v = h.base(t); v < h.base(t) + 32; ++v) {
            const PteView p = h.spaces[t]->table().at(v);
            if (p.present() && !p.slow())
                return p.pfn();
        }
        return kInvalidPfn;
    }
};

TEST(MmAudit, DetectsFrameChargedToWrongMemcg)
{
    TwoTenantFixture f;
    const Pfn pfn = f.residentFrame(0);
    ASSERT_NE(pfn, kInvalidPfn);
    // Repoint tenant a's frame at tenant b's group: the lane no longer
    // matches the owning space, and both groups' usage counters now
    // disagree with the lane recount.
    f.h.frames.info(pfn).memcg = 1;

    const AuditReport rep = f.h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("frame-memcg-mismatch"))
        << rep.toString();
    EXPECT_TRUE(rep.hasInvariant("memcg-usage-mismatch"))
        << rep.toString();
    EXPECT_GE(rep.countFor(AuditSubsystem::Memcg), 3u)
        << "mismatched frame plus one usage recount per group";

    f.h.frames.info(pfn).memcg = 0; // heal for teardown
}

TEST(MmAudit, DetectsAsymmetricCharge)
{
    TwoTenantFixture f;
    const Pfn pfn = f.residentFrame(1);
    ASSERT_NE(pfn, kInvalidPfn);
    // Clear the lane without moving usage() — the half of a charge a
    // buggy free path would leave behind.
    f.h.frames.info(pfn).memcg = kNoMemcg;

    const AuditReport rep = f.h.auditor->audit();
    ASSERT_FALSE(rep.clean());
    EXPECT_TRUE(rep.hasInvariant("frame-uncharged")) << rep.toString();
    EXPECT_TRUE(rep.hasInvariant("memcg-usage-mismatch"))
        << rep.toString();

    f.h.frames.info(pfn).memcg = 1; // heal for teardown
}

TEST(MmAudit, ViolationRenderingIsStructured)
{
    AuditViolation v;
    v.subsystem = AuditSubsystem::Swap;
    v.invariant = "slot-shared";
    v.spaceId = 3;
    v.vpn = 42;
    v.expected = "one owner";
    v.actual = "two owners";
    const std::string s = v.toString();
    EXPECT_NE(s.find("[Swap]"), std::string::npos);
    EXPECT_NE(s.find("slot-shared"), std::string::npos);
    EXPECT_NE(s.find("space=3"), std::string::npos);
    EXPECT_NE(s.find("vpn=42"), std::string::npos);
    EXPECT_NE(s.find("one owner"), std::string::npos);

    AuditReport rep;
    rep.auditSeq = 7;
    rep.violations.push_back(v);
    rep.violations.push_back(v);
    const std::string r = rep.toString(/*max_lines=*/1);
    EXPECT_NE(r.find("mm_audit #7"), std::string::npos);
    EXPECT_NE(r.find("2 violation(s)"), std::string::npos);
    EXPECT_NE(r.find("(1 more)"), std::string::npos);
}

} // namespace
} // namespace pagesim
