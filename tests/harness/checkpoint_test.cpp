/**
 * @file
 * Checkpoint/restore enforcement: fast-forwarded trials must be
 * BIT-IDENTICAL to straight-through execution.
 *
 * The contract under test (DESIGN.md Sec. 4h): capturing a snapshot at
 * a quiescent boundary and running `restore + run(t..end)` reproduces
 * the straight-through TrialResult exactly — same fingerprint the
 * bit-identity pins use, across policies, swap backends, and the
 * multi-memcg colocation harness. Corruption tests pin the failure
 * side: a damaged image is rejected with a structured error and ZERO
 * partial state applied (the same rig still accepts the pristine
 * image afterwards).
 *
 * The pinned constant below is the SAME value as BitIdentity's
 * YcsbAMgLruSsdPinned: fast-forward must not move an existing pin.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness/checkpoint.hh"
#include "harness/sweep.hh"
#include "harness/trial_rig.hh"
#include "kernel/memory_manager.hh"
#include "mem/frame_table.hh"
#include "sim/serialize.hh"
#include "workload/barrier.hh"
#include "workload/workload.hh"

namespace pagesim
{
namespace
{

constexpr std::uint64_t kMaxEvents = 2000000000ull;

/** FNV-1a over 64-bit words, same formulation as bit_identity_test. */
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

/** Hash every integral field a trial reports (bit_identity's set). */
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

ExperimentConfig
smallConfig(WorkloadKind wl, PolicyKind policy, SwapKind swap)
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

/**
 * The core differential: straight-through vs cold-checkpointed (the
 * capture pass itself must not perturb the trial) vs warm-restored
 * (the second identical call must come off the cache and still match).
 * Returns the straight-through fingerprint so callers can pin it.
 */
std::uint64_t
expectFastForwardIdentity(ExperimentConfig cfg, std::uint64_t seed)
{
    const std::string tag = cfg.label() + " seed " + std::to_string(seed);
    cfg.warmupRefs = 0;
    cfg.checkpointAt = 0;
    const TrialResult straight = runTrial(cfg, seed);
    const std::uint64_t want = fingerprint(straight);

    // Self-calibrating boundary: mid-trial by workload progress.
    EXPECT_GT(straight.totalTouches, 0u) << tag;
    cfg.checkpointAt = straight.totalTouches / 2;

    CheckpointCache &cache = CheckpointCache::instance();
    cache.clear();
    const TrialResult cold = runTrial(cfg, seed);
    EXPECT_EQ(cache.misses(), 1u) << tag;
    const TrialResult warm = runTrial(cfg, seed);
    EXPECT_GE(cache.hits(), 1u)
        << tag << ": the restore path never ran — boundary unreachable?";

    EXPECT_EQ(fingerprint(cold), want)
        << tag << ": capturing a checkpoint perturbed the trial";
    EXPECT_EQ(fingerprint(warm), want)
        << tag << ": restore diverged from straight-through execution";
    EXPECT_EQ(cold.totalTouches, straight.totalTouches) << tag;
    EXPECT_EQ(warm.totalTouches, straight.totalTouches) << tag;
    return want;
}

TEST(CheckpointIdentity, PinnedYcsbAMgLruSsd)
{
    // Must equal BitIdentity.YcsbAMgLruSsdPinned: the fast-forward
    // machinery may not move an existing pin, cold or warm.
    EXPECT_EQ(expectFastForwardIdentity(
                  smallConfig(WorkloadKind::YcsbA, PolicyKind::MgLru,
                              SwapKind::Ssd),
                  12345),
              14737800276040979591ull);
}

/** Size and checksum64 of a whole checkpoint image. */
struct ImagePin
{
    std::size_t size;
    std::uint64_t sum;
};

template <typename Rig, typename Config>
ImagePin
pinImageAt(const Config &cfg, std::uint64_t hash, std::uint64_t seed,
           std::uint64_t boundary)
{
    TrialRigOptions opts;
    opts.deferObservers = true;
    Rig rig(cfg, seed, opts);
    std::uint64_t used = 0;
    EXPECT_TRUE(rig.runToBoundary(boundary, kMaxEvents, used));
    Checkpoint ckpt;
    const CheckpointError err =
        captureCheckpoint(rig.view(), hash, seed, boundary, ckpt);
    EXPECT_TRUE(err.ok()) << err.message;
    return {ckpt.bytes.size(),
            checksum64(ckpt.bytes.data(), ckpt.bytes.size())};
}

TEST(CheckpointIdentity, PinnedImageBytes)
{
    // The image format is pinned byte for byte: any change to what a
    // layer serializes, or in what order, moves one of these sums and
    // needs a kCheckpointVersion bump. Fixed boundaries, not
    // self-calibrated ones, so the pin does not depend on trial length.
    const auto experiment = [](WorkloadKind wl, PolicyKind policy,
                               SwapKind swap, double slow,
                               std::uint64_t seed, std::uint64_t at) {
        ExperimentConfig cfg = smallConfig(wl, policy, swap);
        cfg.slowTierRatio = slow;
        return pinImageAt<TrialRig>(cfg, configPrefixHash(cfg), seed, at);
    };

    const ImagePin ycsb = experiment(WorkloadKind::YcsbA, PolicyKind::MgLru,
                                     SwapKind::Ssd, 0.0, 12345, 20000);
    EXPECT_EQ(ycsb.size, 90353u);
    EXPECT_EQ(ycsb.sum, 1184184020263680802ull);

    const ImagePin tpch = experiment(WorkloadKind::Tpch, PolicyKind::Clock,
                                     SwapKind::Zram, 0.0, 27182, 20000);
    EXPECT_EQ(tpch.size, 98072u);
    EXPECT_EQ(tpch.sum, 18278694208857012068ull);

    // Slow-tier frames, the demotion FIFO and PageRank's barriers.
    const ImagePin pr = experiment(WorkloadKind::PageRank, PolicyKind::MgLru,
                                   SwapKind::Ssd, 0.25, 31415, 20000);
    EXPECT_EQ(pr.size, 54734u);
    EXPECT_EQ(pr.sum, 10265277772345835839ull);

    // Two memcgs with their own policies and limits, and the balloon.
    ColocationConfig coloc;
    TenantSpec ycsbTenant;
    ycsbTenant.name = "ycsb";
    ycsbTenant.workload = WorkloadKind::YcsbA;
    ycsbTenant.lowRatio = 0.5;
    TenantSpec tpchTenant;
    tpchTenant.name = "tpch";
    tpchTenant.workload = WorkloadKind::Tpch;
    tpchTenant.policy = PolicyKind::Clock;
    tpchTenant.maxRatio = 0.6;
    coloc.tenants = {ycsbTenant, tpchTenant};
    coloc.capacityRatio = 0.5;
    const ImagePin two = pinImageAt<ColocationRig>(
        coloc, colocationPrefixHash(coloc), 7, 20000);
    EXPECT_EQ(two.size, 148629u);
    EXPECT_EQ(two.sum, 5988313246787538296ull);
}

TEST(CheckpointIdentity, DifferentialAcrossPoliciesAndBackends)
{
    // ISSUE acceptance: bit-identical across >= 2 policies and both
    // swap backends, at seeds unrelated to the pinned one.
    std::uint64_t seed = 909090;
    for (PolicyKind policy : {PolicyKind::MgLru, PolicyKind::Clock}) {
        for (SwapKind swap : {SwapKind::Ssd, SwapKind::Zram}) {
            expectFastForwardIdentity(
                smallConfig(WorkloadKind::YcsbA, policy, swap), seed);
            seed += 7777;
        }
    }
}

TEST(CheckpointIdentity, DifferentialAcrossWorkloads)
{
    // Barrier-carrying (PageRank) and scan-heavy (TPC-H) workloads
    // exercise serialization surfaces YCSB never touches: barrier
    // membership and file-buffer cursors.
    expectFastForwardIdentity(smallConfig(WorkloadKind::PageRank,
                                          PolicyKind::MgLru,
                                          SwapKind::Ssd),
                              31415);
    expectFastForwardIdentity(smallConfig(WorkloadKind::Tpch,
                                          PolicyKind::Clock,
                                          SwapKind::Zram),
                              27182);
}

std::vector<std::uint64_t>
tenantFingerprints(const ColocationTrialResult &trial)
{
    std::vector<std::uint64_t> fps;
    for (const TenantResult &t : trial.tenants)
        fps.push_back(tenantFingerprint(t));
    return fps;
}

TEST(CheckpointIdentity, ColocationDifferential)
{
    // Multi-memcg machine: per-tenant lruvecs, the balloon space, and
    // tenant-major actor ordering all cross the snapshot boundary.
    ColocationConfig config;
    TenantSpec ycsb;
    ycsb.name = "ycsb";
    ycsb.workload = WorkloadKind::YcsbA;
    ycsb.lowRatio = 0.5;
    TenantSpec tpch;
    tpch.name = "tpch";
    tpch.workload = WorkloadKind::Tpch;
    tpch.maxRatio = 0.6;
    config.tenants = {ycsb, tpch};
    config.capacityRatio = 0.5;

    const ColocationTrialResult straight = runColocationTrial(config, 7);
    const std::vector<std::uint64_t> want = tenantFingerprints(straight);
    ASSERT_GT(straight.totalTouches, 0u);
    config.checkpointAt = straight.totalTouches / 2;

    CheckpointCache &cache = CheckpointCache::instance();
    cache.clear();
    const ColocationTrialResult cold = runColocationTrial(config, 7);
    const ColocationTrialResult warm = runColocationTrial(config, 7);
    EXPECT_GE(cache.hits(), 1u) << "colocation restore path never ran";
    EXPECT_EQ(tenantFingerprints(cold), want);
    EXPECT_EQ(tenantFingerprints(warm), want);
    EXPECT_EQ(warm.totalTouches, straight.totalTouches);
}

TEST(CheckpointWarmup, FunctionalWarmupDeterministicAndCacheable)
{
    ExperimentConfig cfg = smallConfig(WorkloadKind::YcsbA,
                                       PolicyKind::MgLru, SwapKind::Ssd);
    const TrialResult straight = runTrial(cfg, 12345);
    ASSERT_GT(straight.totalTouches, 0u);
    cfg.warmupRefs = straight.totalTouches / 2;

    // Functional-only warmup is a deliberate MODEL change (the warmup
    // prefix runs at zero device detail), so it shifts timing relative
    // to straight execution — but it must shift it deterministically.
    CheckpointCache::instance().clear();
    const TrialResult a = runTrial(cfg, 12345);
    const TrialResult b = runTrial(cfg, 12345);
    EXPECT_EQ(fingerprint(a), fingerprint(b));
    EXPECT_NE(fingerprint(a), fingerprint(straight))
        << "functional warmup should suppress device detail";
    // (totalTouches may legitimately differ from the straight run:
    // zero-detail faults change thread interleaving, and YCSB's touch
    // count per op depends on the shared-structure layout that
    // interleaving produces. Determinism, not equality, is the
    // contract here.)

    // And it composes with checkpointing: a restore of the warmed
    // boundary reproduces the warmed run exactly.
    cfg.checkpointAt = cfg.warmupRefs;
    CheckpointCache::instance().clear();
    const TrialResult cold = runTrial(cfg, 12345);
    const TrialResult warm = runTrial(cfg, 12345);
    EXPECT_GE(CheckpointCache::instance().hits(), 1u);
    EXPECT_EQ(fingerprint(cold), fingerprint(a));
    EXPECT_EQ(fingerprint(warm), fingerprint(a));
}

TEST(CheckpointSweep, WarmSweepRestoresInsteadOfResimulating)
{
    // A fig06-style capacity grid: each cell re-runs the same workload
    // prefix per (cell, seed). The first sweep populates the cache;
    // repeating it must restore every trial and change nothing.
    ExperimentConfig probe = smallConfig(WorkloadKind::YcsbA,
                                         PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t touches =
        runTrial(probe, trialSeed(probe, 0)).totalTouches;
    ASSERT_GT(touches, 0u);

    std::vector<ExperimentConfig> cells;
    for (double capacity : {0.5, 0.7}) {
        ExperimentConfig cell = probe;
        cell.capacityRatio = capacity;
        cell.trials = 2;
        cell.checkpointAt = touches / 2;
        cells.push_back(cell);
    }

    CheckpointCache &cache = CheckpointCache::instance();
    cache.clear();
    SweepOptions serial;
    serial.workers = 1;
    const std::vector<ExperimentResult> cold = runSweep(cells, serial);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 4u) << "2 cells x 2 trials, all cold";

    const std::vector<ExperimentResult> warm = runSweep(cells, serial);
    EXPECT_EQ(cache.hits(), 4u) << "every warm trial must restore";

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t c = 0; c < cold.size(); ++c) {
        ASSERT_EQ(cold[c].trials.size(), warm[c].trials.size());
        for (std::size_t t = 0; t < cold[c].trials.size(); ++t)
            EXPECT_EQ(fingerprint(cold[c].trials[t]),
                      fingerprint(warm[c].trials[t]))
                << "cell " << c << " trial " << t;
    }
    cache.clear();
}

TEST(CheckpointSweep, DiskCacheSurvivesInMemoryClear)
{
    // PAGESIM_CHECKPOINT_DIR: the warmup must survive a process
    // boundary, modeled here by dropping the in-memory map.
    const std::string dir = ::testing::TempDir() + "pagesim-ckpt-disk";
    setenv("PAGESIM_CHECKPOINT_DIR", dir.c_str(), 1);

    ExperimentConfig cfg = smallConfig(WorkloadKind::YcsbA,
                                       PolicyKind::MgLru, SwapKind::Ssd);
    const TrialResult straight = runTrial(cfg, 555);
    ASSERT_GT(straight.totalTouches, 0u);
    cfg.checkpointAt = straight.totalTouches / 2;

    CheckpointCache &cache = CheckpointCache::instance();
    cache.clear();
    const TrialResult cold = runTrial(cfg, 555); // persists to dir
    cache.clear();                               // memory gone, disk stays
    const TrialResult warm = runTrial(cfg, 555);
    EXPECT_GE(cache.diskLoads(), 1u)
        << "warm run should have loaded the on-disk checkpoint";
    EXPECT_EQ(fingerprint(cold), fingerprint(straight));
    EXPECT_EQ(fingerprint(warm), fingerprint(straight));

    unsetenv("PAGESIM_CHECKPOINT_DIR");
    cache.clear();
}

TEST(CheckpointCache, PrefixHashCoversMachineShapeOnly)
{
    const ExperimentConfig base = smallConfig(
        WorkloadKind::YcsbA, PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t h = configPrefixHash(base);

    // Machine-shaping fields move the hash...
    ExperimentConfig changed = base;
    changed.capacityRatio = 0.7;
    EXPECT_NE(configPrefixHash(changed), h);
    changed = base;
    changed.policy = PolicyKind::Clock;
    EXPECT_NE(configPrefixHash(changed), h);
    changed = base;
    changed.warmupRefs = 1000;
    EXPECT_NE(configPrefixHash(changed), h)
        << "functional warmup changes the machine's evolution";

    // ...fields keyed elsewhere (or not perturbing the prefix) do not.
    changed = base;
    changed.trials = 9;
    changed.baseSeed = 42;
    changed.checkpointAt = 1234;
    EXPECT_EQ(configPrefixHash(changed), h)
        << "trials/seed/boundary are keyed outside the prefix hash";
}

// ---------------------------------------------------------------------
// Corruption: every damaged image is rejected with the right structured
// error, and a rejected restore applies ZERO state.
// ---------------------------------------------------------------------

/** Build a rig, park it at @p boundary refs, capture a checkpoint. */
Checkpoint
captureAtBoundary(const ExperimentConfig &cfg, std::uint64_t seed,
                  std::uint64_t boundary)
{
    TrialRigOptions opts;
    opts.deferObservers = true;
    TrialRig rig(cfg, seed, opts);
    std::uint64_t used = 0;
    EXPECT_TRUE(rig.runToBoundary(boundary, kMaxEvents, used));
    Checkpoint ckpt;
    const CheckpointError err = captureCheckpoint(
        rig.view(), configPrefixHash(cfg), seed, boundary, ckpt);
    EXPECT_TRUE(err.ok()) << err.message;
    return ckpt;
}

TEST(CheckpointCorruption, RejectedImagesApplyNothing)
{
    const ExperimentConfig cfg = smallConfig(
        WorkloadKind::YcsbA, PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t seed = 12345;
    const std::uint64_t hash = configPrefixHash(cfg);
    const TrialResult straight = runTrial(cfg, seed);
    ASSERT_GT(straight.totalTouches, 0u);
    const Checkpoint good =
        captureAtBoundary(cfg, seed, straight.totalTouches / 2);
    ASSERT_GT(good.bytes.size(), 64u);

    // Fixed image offsets (framing unchanged since kCheckpointVersion
    // = 1; version 2 changed only the section checksum): magic u64 @0,
    // version u32 @8, first section's name-length u32 @48 and name
    // bytes @52 ("sim").
    ASSERT_EQ(good.bytes[8], 2u) << "version field moved?";
    ASSERT_EQ(good.bytes[48], 3u) << "first section name-length moved?";
    ASSERT_EQ(good.bytes[52], static_cast<std::uint8_t>('s'));

    struct Case
    {
        const char *name;
        void (*corrupt)(std::vector<std::uint8_t> &);
        CheckpointError::Kind want;
    };
    const Case cases[] = {
        {"truncated-header",
         [](std::vector<std::uint8_t> &b) { b.resize(10); },
         CheckpointError::Kind::Truncated},
        {"truncated-payload",
         [](std::vector<std::uint8_t> &b) { b.resize(b.size() - 5); },
         CheckpointError::Kind::Truncated},
        {"bad-magic",
         [](std::vector<std::uint8_t> &b) { b[0] ^= 0xff; },
         CheckpointError::Kind::BadMagic},
        {"version-skew-old-v1-image",
         [](std::vector<std::uint8_t> &b) { b[8] = 1; },
         CheckpointError::Kind::VersionMismatch},
        {"flipped-payload-byte",
         [](std::vector<std::uint8_t> &b) { b[b.size() - 1] ^= 0x01; },
         CheckpointError::Kind::FingerprintMismatch},
        {"renamed-section",
         [](std::vector<std::uint8_t> &b) { b[52] = 'x'; },
         CheckpointError::Kind::SectionMissing},
    };

    for (const Case &c : cases) {
        Checkpoint bad = good;
        c.corrupt(bad.bytes);

        TrialRigOptions opts;
        opts.forRestore = true;
        opts.deferObservers = true;
        TrialRig rig(cfg, seed, opts);
        const CheckpointError err =
            restoreCheckpoint(rig.view(), hash, seed, bad);
        EXPECT_EQ(err.kind, c.want) << c.name;
        EXPECT_FALSE(err.message.empty()) << c.name;

        // Zero partial state: the SAME rig still restores cleanly from
        // the pristine image — a half-applied reject would not.
        const CheckpointError retry =
            restoreCheckpoint(rig.view(), hash, seed, good);
        EXPECT_TRUE(retry.ok()) << c.name << ": " << retry.message;
    }

    // Key mismatches are structured too: wrong producer config...
    {
        TrialRigOptions opts;
        opts.forRestore = true;
        opts.deferObservers = true;
        TrialRig rig(cfg, seed, opts);
        EXPECT_EQ(restoreCheckpoint(rig.view(), hash ^ 1, seed, good)
                      .kind,
                  CheckpointError::Kind::ConfigMismatch);
        // ...or wrong trial seed.
        EXPECT_EQ(restoreCheckpoint(rig.view(), hash, seed + 1, good)
                      .kind,
                  CheckpointError::Kind::ConfigMismatch);
    }
}

/** Little-endian field of @p width bytes at @p off. */
std::uint64_t
readLe(const std::vector<std::uint8_t> &b, std::size_t off, int width)
{
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i)
        v |= static_cast<std::uint64_t>(b[off + i]) << (8 * i);
    return v;
}

void
writeLe(std::vector<std::uint8_t> &b, std::size_t off, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        b[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/**
 * Byte surgery: replace section @p name's payload in @p image with
 * @p payload, rewriting its length and recomputing its checksum, so
 * the edited image passes every integrity check and only semantic
 * validation can refuse it.
 */
void
replaceSection(std::vector<std::uint8_t> &image, const std::string &name,
               const std::vector<std::uint8_t> &payload)
{
    std::size_t off = 44; // past magic, version, hash, seed, when, refs
    const std::uint64_t nsections = readLe(image, off, 4);
    off += 4;
    for (std::uint64_t i = 0; i < nsections; ++i) {
        const std::size_t name_len = readLe(image, off, 4);
        const std::string sec(image.begin() + off + 4,
                              image.begin() + off + 4 + name_len);
        const std::size_t len_at = off + 4 + name_len;
        const std::size_t len = readLe(image, len_at, 8);
        const std::size_t begin = len_at + 16;
        if (sec == name) {
            image.erase(image.begin() + begin,
                        image.begin() + begin + len);
            image.insert(image.begin() + begin, payload.begin(),
                         payload.end());
            writeLe(image, len_at, payload.size());
            writeLe(image, len_at + 8,
                    checksum64(payload.data(), payload.size()));
            return;
        }
        off = begin + len;
    }
    ADD_FAILURE() << "no section '" << name << "'";
}

TEST(CheckpointCorruption, FrameCountMismatchIsConfigMismatch)
{
    const ExperimentConfig cfg = smallConfig(
        WorkloadKind::YcsbA, PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t seed = 12345;
    const std::uint64_t hash = configPrefixHash(cfg);
    const TrialResult straight = runTrial(cfg, seed);
    const Checkpoint good =
        captureAtBoundary(cfg, seed, straight.totalTouches / 2);

    TrialRigOptions opts;
    opts.forRestore = true;
    opts.deferObservers = true;
    TrialRig rig(cfg, seed, opts);
    const std::uint32_t nframes = rig.view().frames->totalFrames();

    // A well-formed frames section from a machine one frame smaller or
    // larger (all frames free, so no owner ids are needed),
    // re-checksummed so only the shape check can refuse it.
    for (const std::uint32_t other : {nframes - 1, nframes + 1}) {
        const StateLinks none;
        Sink lanes;
        StateIO io(lanes, &none);
        FrameTable(other).visitState(io);
        Checkpoint bad = good;
        replaceSection(bad.bytes, "frames", lanes.data());

        const CheckpointError err =
            restoreCheckpoint(rig.view(), hash, seed, bad);
        EXPECT_EQ(err.kind, CheckpointError::Kind::ConfigMismatch)
            << other << " frames: " << err.message;
        EXPECT_NE(err.message.find("frame"), std::string::npos);
    }

    // Refused before apply: the same rig still accepts the pristine
    // image, which a half-applied reject would not allow.
    const CheckpointError retry =
        restoreCheckpoint(rig.view(), hash, seed, good);
    ASSERT_TRUE(retry.ok()) << retry.message;
}

/** Copy of section @p name's payload in @p image. */
std::vector<std::uint8_t>
sectionPayload(const std::vector<std::uint8_t> &image,
               const std::string &name)
{
    std::size_t off = 48; // past the header and section count
    while (off < image.size()) {
        const std::size_t name_len = readLe(image, off, 4);
        const std::string sec(image.begin() + off + 4,
                              image.begin() + off + 4 + name_len);
        const std::size_t len = readLe(image, off + 4 + name_len, 8);
        const std::size_t begin = off + 4 + name_len + 16;
        if (sec == name)
            return {image.begin() + begin, image.begin() + begin + len};
        off = begin + len;
    }
    ADD_FAILURE() << "no section '" << name << "'";
    return {};
}

TEST(CheckpointCorruption, OutOfRangeIndicesAreNamedErrors)
{
    // Re-checksummed images whose indices point outside the rig: each
    // must be refused with a named error before anything is applied,
    // never with an assert or an out-of-bounds read.
    const ExperimentConfig cfg = smallConfig(
        WorkloadKind::YcsbA, PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t seed = 12345;
    const std::uint64_t hash = configPrefixHash(cfg);
    const Checkpoint good = captureAtBoundary(cfg, seed, 20000);

    TrialRigOptions opts;
    opts.forRestore = true;
    opts.deferObservers = true;
    TrialRig rig(cfg, seed, opts);
    const RigView view = rig.view();

    struct Case
    {
        const char *name;
        const char *section;
        std::vector<std::uint8_t> payload;
        CheckpointError::Kind want;
    };
    std::vector<Case> cases;

    // A barrier waiter that is not one of the rig's actors.
    {
        Sink barriers;
        for (Workload *wl : view.workloads) {
            std::uint32_t count = 0;
            wl->forEachBarrier([&count](SimBarrier &) { ++count; });
            barriers.u32(count);
            for (std::uint32_t i = 0; i < count; ++i) {
                barriers.u32(0); // arrived
                barriers.u64(0); // generation
                barriers.u64(1); // one waiter...
                barriers.u32(static_cast<std::uint32_t>(
                    view.actors.size())); // ...past the actor table
            }
        }
        cases.push_back({"barrier-waiter", "barriers", barriers.data(),
                         CheckpointError::Kind::Unsupported});
    }
    // A frame owned by a space id past the rig's spaces (and not the
    // balloon's).
    {
        std::vector<std::uint8_t> frames = sectionPayload(good.bytes,
                                                          "frames");
        const std::uint32_t bad_id =
            static_cast<std::uint32_t>(view.spaces.size() + 3);
        for (int i = 0; i < 4; ++i) // the first owner id, after the count
            frames[8 + i] = static_cast<std::uint8_t>(bad_id >> (8 * i));
        cases.push_back({"frame-owner", "frames", frames,
                         CheckpointError::Kind::Unsupported});
    }
    // A different memcg count. The count follows 21 kernel scalars,
    // the (empty) slow-tier frame table and the slow list anchors.
    {
        std::vector<std::uint8_t> mm = sectionPayload(good.bytes, "mm");
        const std::size_t at = 21 * 8 + 13 * 8 + 16;
        ASSERT_EQ(readLe(mm, at, 4), 1u) << "memcg count moved?";
        mm[at] = 2;
        cases.push_back({"memcg-count", "mm", mm,
                         CheckpointError::Kind::ConfigMismatch});
    }
    // An actor state byte past the last SimActor::State. The first
    // actor record starts after the u32 count and its u64 length.
    {
        std::vector<std::uint8_t> actors = sectionPayload(good.bytes,
                                                          "actors");
        actors[4 + 8] = 0x7f;
        cases.push_back({"actor-state", "actors", actors,
                         CheckpointError::Kind::Unsupported});
    }

    for (const Case &c : cases) {
        Checkpoint bad = good;
        replaceSection(bad.bytes, c.section, c.payload);
        const CheckpointError err =
            restoreCheckpoint(view, hash, seed, bad);
        EXPECT_EQ(err.kind, c.want) << c.name << ": " << err.message;
        EXPECT_NE(err.message.find(c.section), std::string::npos)
            << c.name << ": " << err.message;
    }

    // Refused before apply: the same rig still accepts the pristine
    // image.
    const CheckpointError retry = restoreCheckpoint(view, hash, seed, good);
    ASSERT_TRUE(retry.ok()) << retry.message;
}

TEST(CheckpointCorruption, FileRoundTripAndDiskErrors)
{
    const ExperimentConfig cfg = smallConfig(
        WorkloadKind::YcsbA, PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t seed = 12345;
    const TrialResult straight = runTrial(cfg, seed);
    const Checkpoint good =
        captureAtBoundary(cfg, seed, straight.totalTouches / 2);

    const std::string path =
        ::testing::TempDir() + "pagesim-ckpt-roundtrip.bin";
    ASSERT_TRUE(saveCheckpointFile(path, good).ok());

    Checkpoint loaded;
    const CheckpointError err = loadCheckpointFile(path, loaded);
    ASSERT_TRUE(err.ok()) << err.message;
    EXPECT_EQ(loaded.bytes, good.bytes);
    EXPECT_EQ(loaded.configHash, good.configHash);
    EXPECT_EQ(loaded.seed, good.seed);
    EXPECT_EQ(loaded.when, good.when);
    EXPECT_EQ(loaded.refs, good.refs);

    // A file truncated on disk fails at LOAD time, with the full
    // fingerprint sweep — restore never sees a corrupt image.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(good.bytes.data()),
                  static_cast<std::streamsize>(good.bytes.size() / 2));
    }
    Checkpoint half;
    EXPECT_EQ(loadCheckpointFile(path, half).kind,
              CheckpointError::Kind::Truncated);

    Checkpoint missing;
    EXPECT_EQ(loadCheckpointFile(::testing::TempDir() +
                                     "pagesim-ckpt-does-not-exist.bin",
                                 missing)
                  .kind,
              CheckpointError::Kind::Io);
    std::remove(path.c_str());
}

TEST(CheckpointCorruption, CaptureRefusedOffQuiescentPoint)
{
    // A live metrics collector schedules sampler events the image
    // cannot carry; capture must refuse rather than emit a snapshot
    // that restores into a different event population.
    ExperimentConfig cfg = smallConfig(WorkloadKind::YcsbA,
                                       PolicyKind::MgLru, SwapKind::Ssd);
    cfg.metrics.mode = MetricsMode::Counters;
    TrialRig rig(cfg, 12345, TrialRigOptions{});
    Checkpoint out;
    const CheckpointError err =
        captureCheckpoint(rig.view(), configPrefixHash(cfg), 12345, 0, out);
    EXPECT_EQ(err.kind, CheckpointError::Kind::NotQuiescent);
    EXPECT_FALSE(err.message.empty());
}

} // namespace
} // namespace pagesim
