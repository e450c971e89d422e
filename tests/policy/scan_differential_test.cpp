/**
 * @file
 * Differential tests for MG-LRU's aging walk. The word-at-a-time
 * harvest must find exactly the young PTEs a per-slot test-and-clear
 * finds (tests/policy/scan_reference.hh), in the same order and with
 * the same PTE/bitmap end state; and the walk's results (charged
 * costs, stats, generation structure, PTE end-states) must not depend
 * on the number of harvest workers, for every region-choice mode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "policy/mglru/mglru_policy.hh"
#include "policy_test_util.hh"
#include "scan_reference.hh"
#include "sim/rng.hh"

namespace pagesim
{
namespace
{

/** Everything observable after a driving run, for exact comparison. */
struct RunSignature
{
    SimDuration charged = 0;
    PolicyStats stats;
    MgLruStats mg;
    std::uint64_t minSeq = 0;
    std::uint64_t maxSeq = 0;
    std::uint64_t pteHash = 0;
    std::uint64_t pageHash = 0;
};

void
expectIdentical(const RunSignature &a, const RunSignature &b)
{
    EXPECT_EQ(a.charged, b.charged);
    EXPECT_EQ(a.stats.ptesScanned, b.stats.ptesScanned);
    EXPECT_EQ(a.stats.regionsVisited, b.stats.regionsVisited);
    EXPECT_EQ(a.stats.regionsSkipped, b.stats.regionsSkipped);
    EXPECT_EQ(a.stats.rmapWalks, b.stats.rmapWalks);
    EXPECT_EQ(a.stats.promotions, b.stats.promotions);
    EXPECT_EQ(a.stats.demotions, b.stats.demotions);
    EXPECT_EQ(a.stats.agingPasses, b.stats.agingPasses);
    EXPECT_EQ(a.stats.evicted, b.stats.evicted);
    EXPECT_EQ(a.stats.refaults, b.stats.refaults);
    EXPECT_EQ(a.stats.secondChances, b.stats.secondChances);
    EXPECT_EQ(a.mg.genCreations, b.mg.genCreations);
    EXPECT_EQ(a.mg.genCreationBlocked, b.mg.genCreationBlocked);
    EXPECT_EQ(a.mg.bloomInsertions, b.mg.bloomInsertions);
    EXPECT_EQ(a.mg.neighborScans, b.mg.neighborScans);
    EXPECT_EQ(a.mg.neighborPromotions, b.mg.neighborPromotions);
    EXPECT_EQ(a.mg.lateGenCreations, b.mg.lateGenCreations);
    EXPECT_EQ(a.minSeq, b.minSeq);
    EXPECT_EQ(a.maxSeq, b.maxSeq);
    EXPECT_EQ(a.pteHash, b.pteHash);
    EXPECT_EQ(a.pageHash, b.pageHash);
}

/** Access patterns for the worker-count invariance test. */
enum class TouchPattern
{
    Uniform, ///< whole-space uniform random
    Hotspot, ///< 90% of touches in a window straddling a shard seam
    Strided, ///< region-stride walk (one page per region)
};

Vpn
patternVpn(TouchPattern pattern, Rng &rng, int step, Vpn base,
           std::uint64_t pages)
{
    switch (pattern) {
      case TouchPattern::Hotspot:
        if (rng.nextDouble() < 0.9) {
            // Hot window crossing the shard-0/shard-1 seam: the same
            // locality lands in two different harvest chunks.
            const Vpn hot_base = base + kVpnsPerShard - 2048;
            return hot_base + rng.uniformInt(0, 4095);
        }
        return base + rng.uniformInt(0, pages - 1);
      case TouchPattern::Strided:
        return base + (static_cast<std::uint64_t>(step) *
                       kPtesPerRegion) % pages;
      case TouchPattern::Uniform:
      default:
        return base + rng.uniformInt(0, pages - 1);
    }
}

/**
 * Drive a multi-shard machine and snapshot everything observable.
 * The harvest worker count is a pure scheduling choice: for any seed,
 * pattern and region-choice mode, the end state at @p workers equals
 * the one at 1 worker bit for bit.
 */
RunSignature
driveSharded(std::uint64_t seed, TouchPattern pattern, ScanMode mode,
             unsigned workers)
{
    // Span several shards so slices split into multiple chunks and
    // the ordered merge is actually exercised (one shard = 64Ki
    // pages); 4096 frames keep eviction pressure on.
    const std::uint64_t pages = 2 * kVpnsPerShard + 3 * 1024;
    PolicyHarness h(4096, pages);
    MgLruConfig cfg;
    cfg.agingLowPages = 0;
    cfg.agingEvictGate = 0;
    cfg.scanMode = mode;
    cfg.scanWorkers = workers;
    MgLruPolicy policy(h.frames, {&h.space}, h.costs, Rng(seed), cfg);
    EXPECT_GE(h.space.table().numShards(), 3u);

    Rng rng(seed * 7919 + 3);
    CostSink sink;
    std::vector<Pfn> victims;
    for (int step = 0; step < 1500; ++step) {
        const double dice = rng.nextDouble();
        if (dice < 0.55) {
            const Vpn vpn =
                patternVpn(pattern, rng, step, h.base(), pages);
            const auto pte = h.space.table().at(vpn);
            if (pte.present())
                h.space.table().setAccessed(vpn);
            else if (h.frames.freeFrames() > 0)
                h.makeResident(policy, vpn);
        } else if (dice < 0.75) {
            victims.clear();
            policy.selectVictims(victims, 8, sink);
            for (const Pfn pfn : victims)
                h.completeEviction(policy, pfn);
        } else if (dice < 0.92) {
            // Sliced walk: slices below, at, and above the shard size
            // in regions, so chunks both split and span shard seams.
            policy.ageStep(sink, 512 + 512 * (step % 3));
        } else {
            policy.age(sink);
        }
    }

    RunSignature sig;
    sig.charged = sink.total();
    sig.stats = policy.stats();
    sig.mg = policy.mgStats();
    sig.minSeq = policy.minSeq();
    sig.maxSeq = policy.maxSeq();
    for (Vpn vpn = h.base(); vpn < h.base() + pages; ++vpn) {
        const auto pte = h.space.table().at(vpn);
        const std::uint64_t flags =
            (pte.present() ? 1u : 0u) | (pte.accessed() ? 2u : 0u) |
            (pte.dirty() ? 4u : 0u) | (pte.swapped() ? 8u : 0u) |
            (pte.slow() ? 16u : 0u);
        const std::uint64_t value =
            pte.present() ? pte.pfn()
                          : (pte.swapped() ? pte.swapSlot() : 0u);
        sig.pteHash = splitmix64(sig.pteHash ^ (vpn * 31 + flags) ^
                                 (value << 32) ^ pte.shadow());
    }
    for (Pfn pfn = 0; pfn < h.frames.totalFrames(); ++pfn) {
        const auto pi = h.frames.info(pfn);
        if (pi.free())
            continue;
        sig.pageHash =
            splitmix64(sig.pageHash ^ (pi.vpn << 20) ^ (pi.gen << 8) ^
                       (static_cast<std::uint64_t>(pi.refs) << 4) ^
                       pi.tier);
    }
    return sig;
}

TEST(ScanDifferential, ShardedScanMatchesSerialAcrossPatterns)
{
    for (const ScanMode mode :
         {ScanMode::Bloom, ScanMode::All, ScanMode::Random}) {
        for (const TouchPattern pattern :
             {TouchPattern::Uniform, TouchPattern::Hotspot,
              TouchPattern::Strided}) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                SCOPED_TRACE(
                    "mode=" + std::to_string(static_cast<int>(mode)) +
                    " pattern=" +
                    std::to_string(static_cast<int>(pattern)) +
                    " seed=" + std::to_string(seed));
                const RunSignature one =
                    driveSharded(seed, pattern, mode, 1);
                for (const unsigned workers : {2u, 4u}) {
                    SCOPED_TRACE("workers=" + std::to_string(workers));
                    expectIdentical(
                        one, driveSharded(seed, pattern, mode, workers));
                }
            }
        }
    }
}

TEST(ScanDifferential, ShardedScanDoesRealWork)
{
    // Guard against the harness shrinking to a single shard or the
    // walk scanning nothing, in every region-choice mode.
    for (const ScanMode mode :
         {ScanMode::Bloom, ScanMode::All, ScanMode::Random}) {
        SCOPED_TRACE("mode=" + std::to_string(static_cast<int>(mode)));
        const RunSignature sig =
            driveSharded(7, TouchPattern::Hotspot, mode, 4);
        EXPECT_GT(sig.stats.ptesScanned, 0u);
        EXPECT_GT(sig.stats.regionsVisited, 0u);
        EXPECT_GT(sig.stats.promotions, 0u);
        EXPECT_GT(sig.stats.evicted, 0u);
    }
}

TEST(ScanDifferential, WordPathMatchesPerSlotOracle)
{
    // One Scan-All pass over a machine with young, cold, swapped and
    // never-resident PTEs, some carrying accessed bits while not
    // present. A copy of the page table is scanned slot by slot; the
    // policy's walk must find the same young VPNs in the same order
    // and leave the same PTE flags and bitmap words behind.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        constexpr std::uint64_t kPages = 4096;
        PolicyHarness h(1024, kPages);
        MgLruConfig cfg;
        cfg.scanMode = ScanMode::All;
        cfg.agingLowPages = 0;
        cfg.agingEvictGate = 0;
        MgLruPolicy policy(h.frames, {&h.space}, h.costs, Rng(seed),
                           cfg);
        PageTable &table = h.space.table();

        Rng rng(seed * 31 + 5);
        std::vector<Pfn> resident;
        for (int i = 0; i < 900; ++i) {
            const Vpn vpn = h.base() + rng.uniformInt(0, kPages - 1);
            if (!table.at(vpn).present() && !table.at(vpn).swapped())
                resident.push_back(h.makeResident(policy, vpn));
        }
        // Swap some out: their PTEs stay mapped but not present.
        for (std::size_t i = 0; i < resident.size(); i += 7)
            h.completeEviction(policy, resident[i]);
        // Re-arm accessed bits: ~40% of present PTEs, ~20% of the
        // rest, including swapped and never-resident slots.
        std::uint64_t stale = 0;
        for (Vpn v = h.base(); v < h.base() + kPages; ++v) {
            table.clearAccessed(v);
            const bool present = table.at(v).present();
            if (rng.nextDouble() < (present ? 0.4 : 0.2)) {
                table.setAccessed(v);
                stale += present ? 0 : 1;
            }
        }
        ASSERT_GT(stale, 0u);

        PageTable oracle = table;
        std::vector<Vpn> want;
        for (std::uint64_t r = 0; r < oracle.numRegions(); ++r) {
            const std::vector<Vpn> young = referenceYoungScan(oracle, r);
            want.insert(want.end(), young.begin(), young.end());
        }
        ASSERT_FALSE(want.empty());

        CostSink sink;
        const std::uint64_t before = policy.maxSeq();
        policy.age(sink);
        ASSERT_EQ(policy.maxSeq(), before + 1);
        // Every young page moved to the new youngest generation with
        // pushFront, so that list holds them in reverse visit order.
        std::vector<Vpn> got;
        for (Pfn pfn = policy.genListAt(policy.maxSeq()).head();
             pfn != kInvalidPfn; pfn = h.frames.info(pfn).next)
            got.push_back(h.frames.info(pfn).vpn);
        std::reverse(got.begin(), got.end());
        EXPECT_EQ(got, want);

        std::uint64_t survived = 0;
        for (Vpn v = 0; v < table.span(); ++v) {
            ASSERT_EQ(table.at(v).accessed(), oracle.at(v).accessed())
                << "vpn " << v;
            ASSERT_EQ(table.at(v).present(), oracle.at(v).present())
                << "vpn " << v;
            survived += table.at(v).accessed() ? 1 : 0;
        }
        EXPECT_EQ(survived, stale);
        for (std::uint64_t r = 0; r < table.numRegions(); ++r) {
            for (std::uint64_t w = 0; w < PageTable::kWordsPerRegion;
                 ++w) {
                ASSERT_EQ(table.accessedWord(r, w),
                          oracle.accessedWord(r, w));
                ASSERT_EQ(table.presentWord(r, w),
                          oracle.presentWord(r, w));
            }
        }
    }
}

} // namespace
} // namespace pagesim
