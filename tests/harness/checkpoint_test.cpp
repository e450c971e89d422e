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

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "harness/checkpoint.hh"
#include "harness/sweep.hh"
#include "harness/trial_rig.hh"
#include "kernel/memory_manager.hh"
#include "mem/frame_table.hh"
#include "sim/serialize.hh"
#include "workload/barrier.hh"
#include "workload/work_thread.hh"
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
    EXPECT_EQ(ycsb.size, 28662u);
    EXPECT_EQ(ycsb.sum, 3940722506050207661ull);

    const ImagePin tpch = experiment(WorkloadKind::Tpch, PolicyKind::Clock,
                                     SwapKind::Zram, 0.0, 27182, 20000);
    EXPECT_EQ(tpch.size, 26843u);
    EXPECT_EQ(tpch.sum, 12699722832654898590ull);

    // Slow-tier frames, the demotion FIFO and PageRank's barriers.
    const ImagePin pr = experiment(WorkloadKind::PageRank, PolicyKind::MgLru,
                                   SwapKind::Ssd, 0.25, 31415, 20000);
    EXPECT_EQ(pr.size, 16105u);
    EXPECT_EQ(pr.sum, 15119078660468968663ull);

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
    EXPECT_EQ(two.size, 52824u);
    EXPECT_EQ(two.sum, 15004324760916268373ull);
}

TEST(CheckpointIdentity, DifferentialAcrossPoliciesAndBackends)
{
    // ISSUE acceptance: bit-identical across >= 2 policies and both
    // swap backends, at seeds unrelated to the pinned one.
    std::uint64_t seed = 909090;
    // Scan-Rand is the one variant whose walk draws the RNG.
    for (PolicyKind policy :
         {PolicyKind::MgLru, PolicyKind::Clock, PolicyKind::ScanRand}) {
        for (SwapKind swap : {SwapKind::Ssd, SwapKind::Zram}) {
            expectFastForwardIdentity(
                smallConfig(WorkloadKind::YcsbA, policy, swap), seed);
            seed += 7777;
        }
    }
}

TEST(CheckpointIdentity, OverrideCellCheckpoints)
{
    // An MG-LRU override is a plain keyed value, so a Scan-Rand cell at
    // p = 0.25 misses cold, restores warm, and matches straight-through
    // execution, like any other cell.
    ExperimentConfig cfg = smallConfig(WorkloadKind::YcsbA,
                                       PolicyKind::ScanRand, SwapKind::Ssd);
    const std::uint64_t variant = fingerprint(runTrial(cfg, 4242));
    cfg.mglru.randomScanProb = 0.25;
    EXPECT_NE(expectFastForwardIdentity(cfg, 4242), variant)
        << "the override must reach the policy";
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
    // Three runs compared with each other need no audits.
    const ScopedLaunchEnv unaudited([](LaunchEnv &env) { env.auditEvery = 0; });
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
    // boundary, modeled here by dropping the in-memory map. A fresh
    // directory per process, so the warm run can only load the file
    // the cold run wrote, not one an earlier run left.
    const std::string dir = ::testing::TempDir() + "pagesim-ckpt-disk." +
                            std::to_string(::getpid());
    const ScopedLaunchEnv disk(
        [&dir](LaunchEnv &env) { env.checkpointDir = dir; });

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
    cache.clear();
    std::filesystem::remove_all(dir);
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

    // ...fields keyed elsewhere (or not perturbing the prefix) do not.
    changed = base;
    changed.trials = 9;
    changed.baseSeed = 42;
    changed.checkpointAt = 1234;
    changed.metrics.mode = MetricsMode::Full;
    EXPECT_EQ(configPrefixHash(changed), h)
        << "trials/seed/boundary/metrics are keyed outside the prefix hash";

    // The slow tier and every MG-LRU override shape the machine.
    using Set = void (*)(ExperimentConfig &);
    const std::pair<const char *, Set> fields[] = {
        {"slowTierRatio", [](ExperimentConfig &c) { c.slowTierRatio = 0.25; }},
        {"bloomBits", [](ExperimentConfig &c) { c.mglru.bloomBits = 2048; }},
        {"bloomHashes", [](ExperimentConfig &c) { c.mglru.bloomHashes = 1; }},
        {"youngDensityThreshold",
         [](ExperimentConfig &c) { c.mglru.youngDensityThreshold = 32; }},
        {"randomScanProb",
         [](ExperimentConfig &c) { c.mglru.randomScanProb = 0.25; }},
        {"tierProtection",
         [](ExperimentConfig &c) { c.mglru.tierProtection = false; }},
        {"pid.kp", [](ExperimentConfig &c) { c.mglru.pid.kp = 2.0; }},
        {"pid.ki", [](ExperimentConfig &c) { c.mglru.pid.ki = 0.5; }},
    };
    for (const auto &[what, set] : fields) {
        changed = base;
        set(changed);
        EXPECT_NE(configPrefixHash(changed), h) << what;
        EXPECT_EQ(configPrefixHash(changed),
                  colocationPrefixHash(TrialRig::scenario(changed)))
            << what << ": one encoding for both hashes";
    }
    EXPECT_EQ(h, colocationPrefixHash(TrialRig::scenario(base)));

    // Every tenant field, the tenant count and the slow tier of a
    // colocation scenario; its run-only fields stay out.
    ColocationConfig scenario;
    TenantSpec tenant;
    tenant.name = "ycsb";
    scenario.tenants = {tenant};
    const std::uint64_t sh = colocationPrefixHash(scenario);
    using SetTenant = void (*)(TenantSpec &);
    const std::pair<const char *, SetTenant> tenantFields[] = {
        {"name", [](TenantSpec &t) { t.name = "kv"; }},
        {"workload", [](TenantSpec &t) { t.workload = WorkloadKind::YcsbB; }},
        {"scale", [](TenantSpec &t) { t.scale = ScalePreset::Default; }},
        {"policy", [](TenantSpec &t) { t.policy = PolicyKind::Clock; }},
        // A set policy equal to the scenario default is its own key.
        {"policy set", [](TenantSpec &t) { t.policy = PolicyKind::MgLru; }},
        {"lowRatio", [](TenantSpec &t) { t.lowRatio = 0.5; }},
        {"highRatio", [](TenantSpec &t) { t.highRatio = 0.5; }},
        {"maxRatio", [](TenantSpec &t) { t.maxRatio = 0.5; }},
    };
    for (const auto &[what, set] : tenantFields) {
        ColocationConfig other = scenario;
        set(other.tenants[0]);
        EXPECT_NE(colocationPrefixHash(other), sh) << what;
    }
    ColocationConfig other = scenario;
    other.slowTierRatio = 0.25;
    EXPECT_NE(colocationPrefixHash(other), sh) << "slowTierRatio";
    other = scenario;
    other.tenants.push_back(tenant);
    other.tenants.back().name = "second";
    EXPECT_NE(colocationPrefixHash(other), sh) << "tenant count";
    other = scenario;
    other.metrics.mode = MetricsMode::Full;
    other.trials = 9;
    other.baseSeed = 42;
    other.checkpointAt = 1234;
    EXPECT_EQ(colocationPrefixHash(other), sh)
        << "run-only fields stay out of the prefix hash";
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

    // Fixed image offsets (header and section framing unchanged since
    // kCheckpointVersion = 1; later versions changed the section
    // checksum and the lane encoding inside payloads): magic u64 @0,
    // version u32 @8, first section's name-length u32 @48 and name
    // bytes @52 ("sim").
    ASSERT_EQ(good.bytes[8], kCheckpointVersion) << "version field moved?";
    ASSERT_EQ(good.bytes[48], 3u) << "first section name-length moved?";
    ASSERT_EQ(good.bytes[52], static_cast<std::uint8_t>('s'));

    struct Case
    {
        const char *name;
        void (*corrupt)(ByteBuffer &);
        CheckpointError::Kind want;
    };
    const Case cases[] = {
        {"truncated-header",
         [](ByteBuffer &b) { b.resize(10); },
         CheckpointError::Kind::Truncated},
        {"truncated-payload",
         [](ByteBuffer &b) { b.resize(b.size() - 5); },
         CheckpointError::Kind::Truncated},
        {"bad-magic",
         [](ByteBuffer &b) { b[0] ^= 0xff; },
         CheckpointError::Kind::BadMagic},
        {"version-skew-old-v1-image",
         [](ByteBuffer &b) { b[8] = 1; },
         CheckpointError::Kind::VersionMismatch},
        {"flipped-payload-byte",
         [](ByteBuffer &b) { b[b.size() - 1] ^= 0x01; },
         CheckpointError::Kind::FingerprintMismatch},
        {"renamed-section",
         [](ByteBuffer &b) { b[52] = 'x'; },
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
readLe(const ByteBuffer &b, std::size_t off, int width)
{
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i)
        v |= static_cast<std::uint64_t>(b[off + i]) << (8 * i);
    return v;
}

void
writeLe(ByteBuffer &b, std::size_t off, std::uint64_t v)
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
replaceSection(ByteBuffer &image, const std::string &name,
               const ByteBuffer &payload)
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
ByteBuffer
sectionPayload(const ByteBuffer &image,
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
        ByteBuffer payload;
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
    // balloon's). The owner lane, the section's first, travels as a
    // packed lane of u32 ids: re-encode it through StateIO with the
    // first frame's id out of range and keep the other lanes.
    {
        const ByteBuffer frames =
            sectionPayload(good.bytes, "frames");
        const std::uint32_t nframes = view.frames->totalFrames();
        std::vector<std::uint32_t> ids(nframes, StateLinks::kNoSpace);
        ids[0] = static_cast<std::uint32_t>(view.spaces.size() + 3);
        Sink bad;
        StateIO io(bad);
        io.lane(ids);
        ASSERT_EQ(readLe(frames, 0, 8), nframes) << "owner lane moved?";
        const std::size_t rest = 16 + readLe(frames, 8, 8);
        bad.bytes(frames.data() + rest, frames.size() - rest);
        cases.push_back({"frame-owner", "frames", bad.data(),
                         CheckpointError::Kind::Unsupported});
    }
    // A different memcg count. The count follows 21 kernel scalars,
    // the (empty) slow-tier frame table and the slow list anchors;
    // decode past them to find it.
    {
        ByteBuffer mm = sectionPayload(good.bytes, "mm");
        Source src(mm.data(), mm.size());
        StateIO io(src, nullptr, StateIO::Mode::Check);
        for (int i = 0; i < 21; ++i) {
            std::uint64_t scalar = 0;
            io.u64(scalar);
        }
        FrameTable slow(0);
        FrameList slow_list(slow, 1);
        slow.visitState(io);
        slow_list.visitState(io);
        ASSERT_TRUE(io.ok() && !io.mismatched()) << "mm layout moved?";
        const std::size_t at = mm.size() - src.remaining();
        ASSERT_EQ(readLe(mm, at, 4), 1u) << "memcg count moved?";
        ByteBuffer bad = mm;
        bad[at] = 2;
        cases.push_back({"memcg-count", "mm", bad,
                         CheckpointError::Kind::ConfigMismatch});

        // The lone memcg's MG-LRU policy ends the section. From the
        // front: the count, 7 u64 + 2 u32 memcg counters, 10 u64
        // policy stats and 4 generation-list anchors (u32, u32, u64)
        // lead to minSeq and maxSeq. From the back: 41 bytes of RNG
        // state, then walk.promoteSeq; walk.active is 18 bytes before
        // it; activeFilter sits before filterWarm (1), the PID (4 tiers
        // x 56), the MG-LRU counters (64), starvedRounds (4),
        // evictedAtLastAge (8), lastPassNs (8), the walk (26) and the
        // RNG (41).
        const std::size_t min_at = at + 4 + 64 + 80 + 64;
        const std::size_t max_at = min_at + 8;
        const std::size_t promote_at = mm.size() - 41 - 8;
        const std::size_t active_at = promote_at - 18;
        const std::size_t filter_at = mm.size() - 376 - 4;
        const std::uint64_t min_seq = readLe(mm, min_at, 8);
        const std::uint64_t max_seq = readLe(mm, max_at, 8);
        ASSERT_TRUE(min_seq <= max_seq && max_seq - min_seq < 4 &&
                    readLe(mm, filter_at, 4) <= 1 &&
                    mm[active_at] <= 1)
            << "MG-LRU layout moved?";

        bad = mm;
        bad[filter_at] = 2;
        cases.push_back({"mglru-active-filter", "mm", bad,
                         CheckpointError::Kind::Unsupported});
        bad = mm;
        writeLe(bad, max_at, min_seq + 4); // five live generations
        cases.push_back({"mglru-seq-window", "mm", bad,
                         CheckpointError::Kind::Unsupported});
        bad = mm;
        writeLe(bad, min_at, max_seq + 1); // minSeq past maxSeq
        cases.push_back({"mglru-seq-order", "mm", bad,
                         CheckpointError::Kind::Unsupported});
        bad = mm;
        bad[active_at] = 1;
        writeLe(bad, promote_at, max_seq + 2);
        cases.push_back({"mglru-promote-seq", "mm", bad,
                         CheckpointError::Kind::Unsupported});
    }
    // An actor state byte past the last SimActor::State. The first
    // actor record starts after the u32 count and its u64 length.
    {
        ByteBuffer actors = sectionPayload(good.bytes,
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

/** The bodies of the actors section's length-prefixed records. */
std::vector<ByteBuffer>
actorRecords(const ByteBuffer &actors)
{
    std::vector<ByteBuffer> records;
    const std::uint64_t count = readLe(actors, 0, 4);
    std::size_t at = 4;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::size_t len = readLe(actors, at, 8);
        records.emplace_back(actors.begin() + at + 8,
                             actors.begin() + at + 8 + len);
        at += 8 + len;
    }
    EXPECT_EQ(at, actors.size()) << "actors section layout moved?";
    return records;
}

/** The actors section payload holding @p records. */
ByteBuffer
joinActorRecords(const std::vector<ByteBuffer> &records)
{
    Sink sink;
    sink.u32(static_cast<std::uint32_t>(records.size()));
    for (const ByteBuffer &r : records) {
        sink.u64(r.size());
        sink.bytes(r.data(), r.size());
    }
    return sink.data();
}

/**
 * Where a work thread's record holds its stream's cursor: after the
 * SimActor scalars (state byte and five u64) and the thread's own
 * (pending op 22 B, havePending, carry, requestStart and four stats).
 */
constexpr std::size_t kStreamAt = 1 + 40 + 22 + 1 + 8 + 8 + 32;

/** Index of the first WorkThread among @p view's actors. */
std::size_t
firstWorkThread(const RigView &view)
{
    std::size_t thread = 0;
    while (thread < view.actors.size() &&
           dynamic_cast<WorkThread *>(view.actors[thread]) == nullptr)
        ++thread;
    return thread;
}

TEST(CheckpointCorruption, StreamCursorsOutOfRangeAreNamedErrors)
{
    // Re-checksummed images whose op-stream cursors lie outside the
    // stream: each must be refused with a named error before anything
    // is applied, never by silently ending the thread or by reading
    // past the stream's op block. A work thread's record ends with its
    // stream's cursor (kStreamAt).
    constexpr std::uint64_t kPast = ~0ull;
    const std::uint64_t seed = 12345;

    struct Case
    {
        const char *name;
        ByteBuffer body; ///< the first work thread's edited record
    };
    auto check = [&](WorkloadKind kind, auto make_cases) {
        const ExperimentConfig cfg =
            smallConfig(kind, PolicyKind::MgLru, SwapKind::Ssd);
        const std::uint64_t hash = configPrefixHash(cfg);
        const Checkpoint good = captureAtBoundary(cfg, seed, 20000);
        TrialRigOptions opts;
        opts.forRestore = true;
        opts.deferObservers = true;
        TrialRig rig(cfg, seed, opts);
        const RigView view = rig.view();

        const std::size_t thread = firstWorkThread(view);
        ASSERT_LT(thread, view.actors.size());
        std::vector<ByteBuffer> records =
            actorRecords(sectionPayload(good.bytes, "actors"));
        ASSERT_EQ(records.size(), view.actors.size());

        const std::vector<Case> cases = make_cases(records[thread]);
        ASSERT_FALSE(cases.empty()) << workloadKindName(kind);
        for (const Case &c : cases) {
            std::vector<ByteBuffer> edited = records;
            edited[thread] = c.body;
            Checkpoint bad = good;
            replaceSection(bad.bytes, "actors", joinActorRecords(edited));
            const CheckpointError err =
                restoreCheckpoint(view, hash, seed, bad);
            EXPECT_EQ(err.kind, CheckpointError::Kind::Unsupported)
                << c.name << ": " << err.message;
            EXPECT_NE(err.message.find("actors"), std::string::npos)
                << c.name << ": " << err.message;
        }
        // Refused before apply: the same rig still accepts the
        // pristine image.
        const CheckpointError retry =
            restoreCheckpoint(view, hash, seed, good);
        ASSERT_TRUE(retry.ok()) << retry.message;
    };

    // YcsbStream: phase byte, loadLo, done, 41 B of RNG, then the
    // block as the request queue was stored (count, 22 B ops, head).
    check(WorkloadKind::YcsbA, [&](const ByteBuffer &body) {
        std::vector<Case> cases;
        const std::size_t count_at = kStreamAt + 1 + 8 + 8 + 41;
        const std::uint64_t n = readLe(body, count_at, 8);
        const std::size_t head_at = count_at + 8 + 22 * n;
        const bool layout_ok = n <= OpStream::kBlockOps &&
                               body.size() == head_at + 8 &&
                               readLe(body, head_at, 8) <= n;
        EXPECT_TRUE(layout_ok) << "YCSB stream layout moved?";
        if (!layout_ok)
            return cases;

        // A full-capacity block plus one op, the bytes all present:
        // only the capacity check can refuse it.
        ByteBuffer bad = body;
        bad.insert(bad.begin() + head_at,
                   22 * (OpStream::kBlockOps + 1 - n), 0);
        writeLe(bad, count_at, OpStream::kBlockOps + 1);
        cases.push_back({"ycsb-block-length", bad});
        bad = body;
        writeLe(bad, head_at, n + 1);
        cases.push_back({"ycsb-head", bad});
        bad = body;
        writeLe(bad, kStreamAt + 1, kPast);
        cases.push_back({"ycsb-load-window", bad});
        bad = body;
        writeLe(bad, kStreamAt + 9, kPast);
        cases.push_back({"ycsb-requests-done", bad});
        return cases;
    });

    // PatternStream (PageRank has no RandTouch, so no generator):
    // index, emitted, then a zero has-RNG byte.
    check(WorkloadKind::PageRank, [&](const ByteBuffer &body) {
        std::vector<Case> cases;
        const bool layout_ok =
            body.size() == kStreamAt + 17 && body.back() == 0;
        EXPECT_TRUE(layout_ok) << "pattern stream layout moved?";
        if (!layout_ok)
            return cases;
        ByteBuffer bad = body;
        writeLe(bad, kStreamAt, kPast);
        cases.push_back({"pattern-index", bad});
        bad = body;
        writeLe(bad, kStreamAt + 8, kPast);
        cases.push_back({"pattern-emitted", bad});
        bad = body;
        bad.back() = 1;
        Sink rng_bytes;
        StateIO io(rng_bytes);
        Rng(1).visitState(io);
        bad.insert(bad.end(), rng_bytes.data().begin(),
                   rng_bytes.data().end());
        cases.push_back({"pattern-rng-off-randtouch", bad});
        return cases;
    });
}

TEST(CheckpointCorruption, YcsbGeneratorWordsMustMatchTheDrawTable)
{
    // A YCSB stream's generator is not stored: it is derived from the
    // thread's draw table and its request cursor. The image still
    // carries the 41 bytes a live generator wrote (four state words,
    // the spare-normal flag and value), and each must equal the
    // derived one. A re-checksummed image with any of them changed is
    // a named config mismatch in the actors section, refused before
    // anything is applied.
    const ExperimentConfig cfg =
        smallConfig(WorkloadKind::YcsbA, PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t seed = 12345;
    const std::uint64_t hash = configPrefixHash(cfg);
    const Checkpoint good = captureAtBoundary(cfg, seed, 20000);
    TrialRigOptions opts;
    opts.forRestore = true;
    opts.deferObservers = true;
    TrialRig rig(cfg, seed, opts);
    const RigView view = rig.view();
    const std::size_t thread = firstWorkThread(view);
    ASSERT_LT(thread, view.actors.size());
    const std::vector<ByteBuffer> records =
        actorRecords(sectionPayload(good.bytes, "actors"));
    ASSERT_EQ(records.size(), view.actors.size());

    // Phase byte, loadLo, done, then the generator.
    const std::size_t rng_at = kStreamAt + 1 + 8 + 8;
    EXPECT_GT(readLe(records[thread], kStreamAt + 9, 8), 0u)
        << "the thread should be serving requests at the boundary";
    // Each case XORs its mask into one field: a low bit of a state
    // word, the flag byte, and the spare value (0.0 in a live image,
    // so it reads 0.5 after).
    struct Case
    {
        const char *name;
        std::size_t at;
        int width;
        std::uint64_t mask;
    };
    const Case cases[] = {
        {"state word 0", rng_at, 8, 1},
        {"state word 1", rng_at + 8, 8, 1},
        {"state word 2", rng_at + 16, 8, 1},
        {"state word 3", rng_at + 24, 8, 1},
        {"spare-normal flag", rng_at + 32, 1, 1},
        {"spare-normal value", rng_at + 33, 8,
         std::bit_cast<std::uint64_t>(0.5)},
    };
    for (const Case &c : cases) {
        std::vector<ByteBuffer> edited = records;
        ByteBuffer &body = edited[thread];
        if (c.width == 1)
            body[c.at] ^= static_cast<std::uint8_t>(c.mask);
        else
            writeLe(body, c.at, readLe(body, c.at, 8) ^ c.mask);
        ASSERT_NE(body, records[thread]) << c.name;
        Checkpoint bad = good;
        replaceSection(bad.bytes, "actors", joinActorRecords(edited));
        const CheckpointError err = restoreCheckpoint(view, hash, seed, bad);
        EXPECT_EQ(err.kind, CheckpointError::Kind::ConfigMismatch)
            << c.name << ": " << err.message;
        EXPECT_NE(err.message.find("actors"), std::string::npos)
            << c.name << ": " << err.message;
    }
    const CheckpointError retry = restoreCheckpoint(view, hash, seed, good);
    ASSERT_TRUE(retry.ok()) << retry.message;
}

TEST(CheckpointCorruption, VersionTwoImageIsRefused)
{
    // Version 3 packed every lane, versions 4 and 5 changed the config
    // prefix hash, and version 6 dropped the page table's counters; a
    // version-2 image (raw lanes), a version-3 or -4 one (an old hash)
    // or a version-5 one (counter lanes) must be refused by the version
    // gate, in memory and from disk, not fed to the decoder.
    const ExperimentConfig cfg = smallConfig(
        WorkloadKind::YcsbA, PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t seed = 12345;
    const std::uint64_t hash = configPrefixHash(cfg);
    const Checkpoint current = captureAtBoundary(cfg, seed, 20000);
    ASSERT_EQ(readLe(current.bytes, 8, 4), kCheckpointVersion);

    TrialRigOptions opts;
    opts.forRestore = true;
    opts.deferObservers = true;
    TrialRig rig(cfg, seed, opts);
    for (const std::uint8_t version : {2, 3, 4, 5}) {
        Checkpoint old = current;
        old.bytes[8] = version;
        const CheckpointError err =
            restoreCheckpoint(rig.view(), hash, seed, old);
        EXPECT_EQ(err.kind, CheckpointError::Kind::VersionMismatch);
        EXPECT_NE(err.message.find("version " + std::to_string(version)),
                  std::string::npos)
            << err.message;

        const std::string path = ::testing::TempDir() + "pagesim-ckpt-v" +
                                 std::to_string(version) + ".bin";
        ASSERT_TRUE(saveCheckpointFile(path, old).ok());
        Checkpoint loaded;
        EXPECT_EQ(loadCheckpointFile(path, loaded).kind,
                  CheckpointError::Kind::VersionMismatch);
        std::remove(path.c_str());
    }
}

/** One framed section of an image: its name and payload. */
struct FramedSection
{
    std::string name;
    ByteBuffer payload;
};

/** The sections of @p image, in image order. */
std::vector<FramedSection>
splitSections(const ByteBuffer &image)
{
    std::vector<FramedSection> out;
    std::size_t off = 48; // past the header and section count
    while (off < image.size()) {
        const std::size_t name_len = readLe(image, off, 4);
        FramedSection sec;
        sec.name.assign(image.begin() + off + 4,
                        image.begin() + off + 4 + name_len);
        const std::size_t len = readLe(image, off + 4 + name_len, 8);
        const std::size_t begin = off + 4 + name_len + 16;
        sec.payload.assign(image.begin() + begin,
                           image.begin() + begin + len);
        out.push_back(std::move(sec));
        off = begin + len;
    }
    return out;
}

/**
 * @p image's header followed by @p sections, each framed and
 * re-checksummed, and the section count rewritten, so only the
 * section-list check can refuse it.
 */
ByteBuffer
withSections(const ByteBuffer &image,
             const std::vector<FramedSection> &sections)
{
    Sink out;
    out.bytes(image.data(), 44); // magic, version, hash, seed, when, refs
    out.u32(static_cast<std::uint32_t>(sections.size()));
    for (const FramedSection &sec : sections) {
        out.u32(static_cast<std::uint32_t>(sec.name.size()));
        out.bytes(sec.name.data(), sec.name.size());
        out.u64(sec.payload.size());
        out.u64(checksum64(sec.payload.data(), sec.payload.size()));
        out.bytes(sec.payload.data(), sec.payload.size());
    }
    return std::move(out).take();
}

TEST(CheckpointCorruption, SectionListMustBeExactlyTheTable)
{
    // Every section checksums clean, so only the list itself is wrong:
    // a duplicated section must not restore from its first copy, an
    // unknown one must not be ignored, and the order is fixed.
    const ExperimentConfig cfg = smallConfig(
        WorkloadKind::YcsbA, PolicyKind::MgLru, SwapKind::Ssd);
    const std::uint64_t seed = 12345;
    const std::uint64_t hash = configPrefixHash(cfg);
    const Checkpoint good = captureAtBoundary(cfg, seed, 20000);
    const std::vector<FramedSection> sections = splitSections(good.bytes);
    ASSERT_EQ(sections.size(), 8u);
    ASSERT_EQ(withSections(good.bytes, sections), good.bytes);

    struct Case
    {
        const char *name;
        std::vector<FramedSection> sections;
        const char *named;
    };
    std::vector<Case> cases;
    {
        std::vector<FramedSection> dup = sections;
        dup.push_back(sections[2]);
        ASSERT_EQ(dup.back().name, "frames");
        cases.push_back({"duplicated", dup, "duplicated section 'frames'"});
    }
    {
        std::vector<FramedSection> extra = sections;
        extra.push_back({"extra", {1, 2, 3}});
        cases.push_back({"unknown", extra, "unknown section 'extra'"});
    }
    {
        std::vector<FramedSection> swapped = sections;
        std::swap(swapped[0], swapped[1]);
        cases.push_back(
            {"reordered", swapped, "out-of-order section 'spaces'"});
    }

    TrialRigOptions opts;
    opts.forRestore = true;
    opts.deferObservers = true;
    TrialRig rig(cfg, seed, opts);
    const std::string path =
        ::testing::TempDir() + "pagesim-ckpt-sections.bin";
    for (const Case &c : cases) {
        Checkpoint bad = good;
        bad.bytes = withSections(good.bytes, c.sections);
        const CheckpointError err =
            restoreCheckpoint(rig.view(), hash, seed, bad);
        EXPECT_EQ(err.kind, CheckpointError::Kind::Unsupported) << c.name;
        EXPECT_NE(err.message.find(c.named), std::string::npos)
            << c.name << ": " << err.message;

        ASSERT_TRUE(saveCheckpointFile(path, bad).ok());
        Checkpoint loaded;
        EXPECT_EQ(loadCheckpointFile(path, loaded).kind,
                  CheckpointError::Kind::Unsupported)
            << c.name;
    }
    std::remove(path.c_str());

    // Refused before apply: the same rig still accepts the pristine
    // image.
    const CheckpointError retry =
        restoreCheckpoint(rig.view(), hash, seed, good);
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
