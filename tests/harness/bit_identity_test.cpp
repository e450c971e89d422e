/**
 * @file
 * Trial bit-identity pins for determinism-sensitive refactors.
 *
 * Each golden fingerprint below was captured from runTrial() BEFORE a
 * container/bookkeeping refactor and must stay byte-for-byte stable
 * after it. The hash covers only integral TrialResult fields (times,
 * fault counters, per-thread integer series), so it is independent of
 * host FP quirks and of how aggregates are summarized.
 *
 * Pinned refactors:
 *  - PR 5: MemoryManager::ioWaiters_ moved from std::unordered_map
 *    with pointer-value hashing to an ordered std::map keyed by
 *    (AddressSpace::id(), vpn). The waiter map feeds wake order and
 *    the audit walk; these fingerprints prove the swap changed
 *    nothing observable.
 *  - The one-machine-build refactor (a single-workload trial became a
 *    one-tenant colocation): binding memcg limits, the slow tier and
 *    the fast-forward driver are pinned on their own, because the
 *    three plain cells above reach none of those paths.
 *  - The one-aging-walk refactor (Scan-Rand's region choice became a
 *    serial pre-pass, the harvest became read-only): the Scan-Rand
 *    and Scan-All cells, plus the 1M-page pin.
 *
 * If a fingerprint changes, the refactor being tested altered
 * simulated behavior: find the divergence, don't re-record. Only
 * re-record (instructions below) when a DELIBERATE model change
 * invalidates the pins, and say so in the commit message.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "harness/checkpoint.hh"
#include "harness/experiment.hh"

namespace pagesim
{
namespace
{

/** FNV-1a over a stream of 64-bit words. */
class Fnv
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xff;
            hash_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/** Hash every integral field a trial reports. */
std::uint64_t
fingerprint(const TrialResult &r)
{
    Fnv h;
    h.add(r.runtimeNs);
    h.add(r.majorFaults);

    h.add(r.kernel.majorFaults);
    h.add(r.kernel.minorFaults);
    h.add(r.kernel.ioWaitFaults);
    h.add(r.kernel.evictions);
    h.add(r.kernel.dirtyWritebacks);
    h.add(r.kernel.cleanDrops);
    h.add(r.kernel.writebackRemaps);
    h.add(r.kernel.readaheadReads);
    h.add(r.kernel.readaheadHits);
    h.add(r.kernel.directReclaims);
    h.add(r.kernel.directAging);
    h.add(r.kernel.allocStalls);

    h.add(r.policy.ptesScanned);
    h.add(r.policy.regionsVisited);
    h.add(r.policy.regionsSkipped);
    h.add(r.policy.rmapWalks);
    h.add(r.policy.promotions);
    h.add(r.policy.demotions);
    h.add(r.policy.agingPasses);
    h.add(r.policy.evicted);
    h.add(r.policy.refaults);
    h.add(r.policy.secondChances);

    h.add(r.swap.reads);
    h.add(r.swap.writes);
    h.add(r.swap.totalReadLatency);
    h.add(r.swap.totalWriteLatency);
    h.add(r.swap.peakQueueDepth);

    h.add(r.mglru.genCreations);
    h.add(r.mglru.genCreationBlocked);
    h.add(r.mglru.bloomInsertions);
    h.add(r.mglru.neighborScans);
    h.add(r.mglru.neighborPromotions);
    h.add(r.mglru.tierProtected);
    h.add(r.mglru.staleRefaults);
    h.add(r.mglru.lateGenCreations);

    for (SimTime t : r.threadFinishNs)
        h.add(t);
    for (std::uint64_t f : r.threadBlockedFaults)
        h.add(f);

    h.add(r.kswapdCpuNs);
    h.add(r.agingCpuNs);
    h.add(r.agingPasses);
    return h.value();
}

std::uint64_t
run(WorkloadKind wl, PolicyKind policy)
{
    ExperimentConfig cfg;
    cfg.workload = wl;
    cfg.policy = policy;
    cfg.swap = SwapKind::Ssd; // async device: exercises ioWaiters_
    cfg.capacityRatio = 0.5;
    cfg.scale = ScalePreset::Small;
    cfg.baseSeed = 12345;
    return fingerprint(runTrial(cfg, /*trial_seed=*/12345));
}

/*
 * To re-record after a deliberate model change:
 *   build/tests/harness_test --gtest_filter='BitIdentity.*' and copy
 * the "actual" value from each failure message into the pins.
 */

TEST(BitIdentity, YcsbAMgLruSsdPinned)
{
    EXPECT_EQ(run(WorkloadKind::YcsbA, PolicyKind::MgLru),
              14737800276040979591ull);
}

TEST(BitIdentity, YcsbAClockSsdPinned)
{
    EXPECT_EQ(run(WorkloadKind::YcsbA, PolicyKind::Clock),
              2700564566422927531ull);
}

TEST(BitIdentity, PageRankMgLruSsdPinned)
{
    EXPECT_EQ(run(WorkloadKind::PageRank, PolicyKind::MgLru),
              15287283016998830679ull);
}

/*
 * The paper's walk variants differ only in which regions the aging
 * walk visits; Scan-Rand is the one whose choice draws the RNG.
 */
TEST(BitIdentity, ScanRandPinned)
{
    EXPECT_EQ(run(WorkloadKind::PageRank, PolicyKind::ScanRand),
              13184766367275614099ull);
}

TEST(BitIdentity, ScanAllPinned)
{
    EXPECT_EQ(run(WorkloadKind::PageRank, PolicyKind::ScanAll),
              9963156510884256514ull);
}

/*
 * Pin for the frame-metadata and aging-walk refactors, captured on a
 * 1M-page (4 GiB) YCSB machine — large enough that the aging walk's
 * slicing carries the whole trial. (Its name predates the removal of
 * the 4-harvest-worker arm.) The auditor is a pure observer, and one
 * audit walks all 1M frames, so an every-batch audit cadence would
 * not finish inside a sanitizer job; the trial runs unaudited.
 */
TEST(BitIdentity, Big1MOneAndFourWorkersPinned)
{
    const ScopedLaunchEnv unaudited([](LaunchEnv &env) { env.auditEvery = 0; });
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::YcsbA;
    cfg.policy = PolicyKind::MgLru;
    cfg.swap = SwapKind::Ssd;
    cfg.capacityRatio = 0.5;
    cfg.scale = ScalePreset::Big1M;
    cfg.baseSeed = 12345;
    EXPECT_EQ(fingerprint(runTrial(cfg, 12345)), 15456000562956673319ull);
}

/** fingerprint() plus the tiered-memory counters. */
std::uint64_t
tieredFingerprint(const TrialResult &r)
{
    Fnv h;
    h.add(fingerprint(r));
    h.add(r.tier.demotions);
    h.add(r.tier.promotions);
    h.add(r.tier.slowHits);
    h.add(r.tier.slowEvictions);
    return h.value();
}

ExperimentConfig
smallCell(WorkloadKind wl, PolicyKind policy, SwapKind swap)
{
    ExperimentConfig cfg;
    cfg.workload = wl;
    cfg.policy = policy;
    cfg.swap = swap;
    cfg.capacityRatio = 0.5;
    cfg.scale = ScalePreset::Small;
    cfg.baseSeed = 12345;
    return cfg;
}

TEST(BitIdentity, TpchClockZramBindingMemcgPinned)
{
    // A lone memcg with binding high/max limits: limit reclaim and
    // throttling in the faulting task, on the synchronous device.
    ExperimentConfig cfg =
        smallCell(WorkloadKind::Tpch, PolicyKind::Clock, SwapKind::Zram);
    const TrialResult unlimited = runTrial(cfg, 12345);
    cfg.memcgHighRatio = 0.35;
    cfg.memcgMaxRatio = 0.4;
    const TrialResult r = runTrial(cfg, 12345);
    EXPECT_GT(r.kernel.evictions, unlimited.kernel.evictions);
    EXPECT_EQ(fingerprint(r), 7898949620799492758ull);
}

TEST(BitIdentity, YcsbAMgLruSsdSlowTierPinned)
{
    // TPP tiering: demotion before swap, promotion on slow-tier hits.
    ExperimentConfig cfg =
        smallCell(WorkloadKind::YcsbA, PolicyKind::MgLru, SwapKind::Ssd);
    cfg.slowTierRatio = 0.25;
    const TrialResult r = runTrial(cfg, 12345);
    EXPECT_GT(r.tier.demotions, 0u);
    EXPECT_EQ(tieredFingerprint(r), 15650516576142245563ull);
}

TEST(BitIdentity, FastForwardColdAndWarmPinned)
{
    // A checkpoint boundary: the cold call simulates the prefix and
    // captures it, the warm call restores it. Both must land on the
    // result of the same cell run straight through.
    ExperimentConfig cfg =
        smallCell(WorkloadKind::YcsbB, PolicyKind::MgLru, SwapKind::Zram);
    const std::uint64_t straight = fingerprint(runTrial(cfg, 12345));
    cfg.checkpointAt = 20000;
    CheckpointCache &cache = CheckpointCache::instance();
    cache.clear();
    const std::uint64_t cold = fingerprint(runTrial(cfg, 12345));
    EXPECT_EQ(cache.hits(), 0u);
    const std::uint64_t warm = fingerprint(runTrial(cfg, 12345));
    EXPECT_EQ(cache.hits(), 1u);
    cache.clear();
    EXPECT_EQ(cold, straight);
    EXPECT_EQ(warm, straight);
}

} // namespace
} // namespace pagesim
