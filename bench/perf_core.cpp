/**
 * @file
 * Core-performance benchmark: tracks the simulator's two hot layers
 * and emits a machine-readable BENCH_core.json baseline so the perf
 * trajectory is visible across PRs.
 *
 *  1. Event-queue dispatch throughput: the current timing-wheel queue
 *     vs a faithful replica of the original std::priority_queue +
 *     std::function queue, measured two ways. The headline number is
 *     the classic hold model (dequeue + re-enqueue at a random offset,
 *     empty callbacks) which isolates the queue operations themselves;
 *     a second churn run dispatches actor-like self-rescheduling
 *     callbacks with mixed small/large captures to include callback
 *     storage effects. Both use the same mixed near/far delta table.
 *  2. Aging-scan throughput: MG-LRU's page-table walk over a resident
 *     machine, word-at-a-time bitmap path vs the per-slot reference
 *     loop (MgLruConfig::referenceScan), across access-pattern shapes
 *     (dense, sparse residency, 10%-accessed). The two paths are
 *     bit-identical by contract — tests prove it — so the speedup is
 *     pure host-side scan throughput.
 *  3. End-to-end trial wall time at ScalePreset::Small (min of 5),
 *     plus the metrics-layer overhead at that scale: the same cell
 *     timed with metrics detached, with counters+spans, and with the
 *     full periodic sampler (guarded at <1% / <5% by the roadmap).
 *  4. A fig-style multi-cell sweep executed two ways: serial cells
 *     (each cell barriers before the next starts — the pre-sweep
 *     behavior) vs one pooled cross-cell sweep, with a byte-identity
 *     check on the results. On hosts too small for the pool to pay
 *     for itself the sweep layer degrades to the serial path; the
 *     degraded_to_serial field records that so the tracked speedup is
 *     honest rather than a thread-spawn-overhead artifact.
 *  5. Fast-forward execution: a fig06-style capacity grid swept cold
 *     (simulating every warmup prefix) vs warm (restoring each trial
 *     from the checkpoint cache), with a bit-identity check between
 *     the two; plus time-to-first-measurement on the Big64M machine
 *     with full-detail vs functional-only warmup.
 *  6. Checkpoint serializer throughput: FrameTable lane capture and
 *     restore GB/s, and whole-image captureCheckpoint /
 *     restoreCheckpoint GB/s (framing and section checksums included)
 *     on a Big1M machine parked mid-trial.
 *
 * Usage: perf_core [output.json]   (default: BENCH_core.json in cwd)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/trial_rig.hh"
#include "mem/address_space.hh"
#include "mem/frame_table.hh"
#include "policy/mglru/mglru_policy.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace
{

using namespace pagesim;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Opaque sink: keeps a benchmarked result observable to the
 *  optimizer without google-benchmark's DoNotOptimize. */
void
benchKeepAlive(const void *p)
{
    asm volatile("" : : "g"(p) : "memory");
}

/**
 * Process CPU time. The metrics-overhead comparison uses this rather
 * than wall time: on a shared host, time the process spends scheduled
 * out would otherwise swamp the few-percent effect being measured.
 */
double
cpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Replica of the pre-calendar event queue (std::priority_queue of
 * std::function records), kept here as the measurement baseline the
 * 2x acceptance bar refers to.
 */
class LegacyHeapQueue
{
  public:
    using Callback = std::function<void()>;

    SimTime now() const { return now_; }

    void
    scheduleAfter(SimDuration delay, Callback cb)
    {
        heap_.push(Record{now_ + delay, nextSeq_++, std::move(cb)});
    }

    bool
    runOne()
    {
        if (heap_.empty())
            return false;
        Record &top = const_cast<Record &>(heap_.top());
        now_ = top.when;
        Callback cb = std::move(top.cb);
        heap_.pop();
        cb();
        return true;
    }

  private:
    struct Record
    {
        SimTime when;
        std::uint64_t seq;
        Callback cb;
    };
    struct Later
    {
        bool
        operator()(const Record &a, const Record &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };
    std::priority_queue<Record, std::vector<Record>, Later> heap_;
    SimTime now_ = 0;
    std::uint64_t nextSeq_ = 0;
};

/** Deterministic delta table shared by both queues: mostly CPU-chunk
 *  scale, some device-latency scale, a few daemon-sleep scale (the
 *  last exercise the calendar queue's overflow path). */
std::vector<std::uint32_t>
deltaTable()
{
    std::vector<std::uint32_t> deltas(4096);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (auto &d : deltas) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const unsigned bucket = x % 100;
        if (bucket < 85)
            d = 1000 + static_cast<std::uint32_t>(x % 64000);
        else if (bucket < 95)
            d = static_cast<std::uint32_t>(x % 1000000);
        else
            d = 50000000 + static_cast<std::uint32_t>(x % 150000000);
    }
    return deltas;
}

/** Payload sized like the largest real capture (an SSD completion:
 *  this + Request{flag, timestamp, std::function}). */
struct BigPayload
{
    std::uint64_t a = 1, b = 2, c = 3;
    std::function<void()> inner;
};

template <typename Queue>
struct Churn
{
    Queue &q;
    const std::vector<std::uint32_t> &deltas;
    std::uint64_t idx = 0;
    std::uint64_t fired = 0;
    std::uint64_t sink = 0;

    void
    pump()
    {
        const std::uint32_t d = deltas[idx & (deltas.size() - 1)];
        if ((idx++ & 3) == 0) {
            // Large capture: heap-allocates under std::function,
            // stays inline under SmallFunction.
            q.scheduleAfter(d, [this, p = BigPayload{}] {
                sink += p.a;
                ++fired;
                pump();
            });
        } else {
            // Actor-like small capture (this + epoch).
            const std::uint64_t epoch = idx;
            q.scheduleAfter(d, [this, epoch] {
                sink += epoch;
                ++fired;
                pump();
            });
        }
    }
};

template <typename Queue>
double
churnEventsPerSec(std::uint64_t total, unsigned outstanding)
{
    Queue q;
    const std::vector<std::uint32_t> deltas = deltaTable();
    Churn<Queue> churn{q, deltas};
    for (unsigned i = 0; i < outstanding; ++i)
        churn.pump();
    const auto start = Clock::now();
    while (churn.fired < total)
        q.runOne();
    const double secs = secondsSince(start);
    return static_cast<double>(churn.fired) / secs;
}

/**
 * Brown's hold model: steady-state dequeue + re-enqueue with empty
 * callbacks, the standard way to measure a pending-event-set's
 * operation cost in isolation.
 */
template <typename Queue>
double
holdEventsPerSec(std::uint64_t total, unsigned outstanding)
{
    Queue q;
    const std::vector<std::uint32_t> deltas = deltaTable();
    std::uint64_t idx = 0;
    for (unsigned i = 0; i < outstanding; ++i)
        q.scheduleAfter(deltas[idx++ & (deltas.size() - 1)], [] {});
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < total; ++i) {
        q.runOne();
        q.scheduleAfter(deltas[idx++ & (deltas.size() - 1)], [] {});
    }
    return static_cast<double>(total) / secondsSince(start);
}

/** VMA size for the aging-scan microbench (1024 regions). */
constexpr std::uint64_t kScanPages = 1ull << 16;
/** Timed aging passes per measurement. */
constexpr int kScanPasses = 24;

/** One access-pattern shape for the aging-scan microbench. */
struct ScanPattern
{
    const char *key;   ///< JSON key
    const char *label; ///< human-readable
    /** Make every Nth page resident (1 = fully dense). */
    unsigned residencyStride;
    /** Re-arm the accessed bit on every Nth resident page. */
    unsigned accessedStride;
};

constexpr ScanPattern kScanPatterns[] = {
    {"dense", "dense (all resident, all accessed)", 1, 1},
    {"sparse", "sparse (1/16 resident, all accessed)", 16, 1},
    {"ten_pct_accessed", "10% accessed (all resident)", 1, 10},
};

/**
 * PTE-scan throughput of MG-LRU's aging walk over a synthetic
 * machine shaped by @p pat. Accessed bits are re-armed untimed
 * between passes so every timed pass does the same work; throughput
 * counts all PTEs the walk covers (the policy charges per-region, so
 * skipped-over cold PTEs are part of the scanned denominator for
 * both implementations).
 */
double
scanPtesPerSec(const ScanPattern &pat, bool reference)
{
    FrameTable frames(static_cast<std::uint32_t>(
        kScanPages / pat.residencyStride + 1));
    AddressSpace space(0);
    const Vpn base = space.map("scan-bench", kScanPages);
    MmCosts costs;
    MgLruConfig cfg;
    cfg.scanMode = ScanMode::All;
    cfg.agingLowPages = 0;
    cfg.agingEvictGate = 0;
    cfg.referenceScan = reference;
    MgLruPolicy policy(frames, {&space}, costs, Rng(1), cfg);

    PageTable &table = space.table();
    std::vector<Vpn> rearm;
    std::uint64_t i = 0;
    for (Vpn v = base; v < base + kScanPages;
         v += pat.residencyStride, ++i) {
        const Pfn pfn = frames.allocate(&space, v, false);
        table.mapFrame(v, pfn);
        policy.onPageResident(pfn, ResidencyKind::NewAnon, 0);
        if (i % pat.accessedStride == 0)
            rearm.push_back(v);
    }

    CostSink sink;
    for (const Vpn v : rearm)
        table.setAccessed(v);
    policy.age(sink); // warm pass: caches, generations, Bloom state

    const std::uint64_t before = policy.stats().ptesScanned;
    double secs = 0.0;
    for (int pass = 0; pass < kScanPasses; ++pass) {
        for (const Vpn v : rearm)
            table.setAccessed(v); // untimed re-arm
        const auto t0 = Clock::now();
        policy.age(sink);
        secs += secondsSince(t0);
    }
    return static_cast<double>(policy.stats().ptesScanned - before) /
           secs;
}

// --- Big machine: 64M-page (256 GiB) SoA machine. ------------------

/** Pages of the big-machine scan VMA (64Mi = 256 GiB of memory). */
constexpr std::uint64_t kBigScanPages = 1ull << 26;
/** Make every Nth page resident (every region stays present). */
constexpr unsigned kBigResidencyStride = 4;
/**
 * Re-arm the accessed bit on every Nth resident page (~0.1% young
 * per pass). The steady-state regime on a machine this size: the hot
 * set is a sliver of the 64M-page slab, so an aging pass is walk-
 * bound, not promotion-bound. Denser young fractions shift time into
 * visitYoungPte, which both scan paths replay identically and which
 * therefore only dilutes the walk comparison (at 1/64 the measured
 * gap drops to ~1.1x for that reason).
 */
constexpr unsigned kBigAccessedStride = 1024;
/** Timed aging passes per measurement. */
constexpr int kBigScanPasses = 3;
/** Harvest workers for the sharded side. */
constexpr unsigned kBigScanWorkers = 4;

/**
 * PTE-scan throughput of a full aging pass over the 64M-page
 * machine: the legacy serial region walk vs the sharded
 * harvest-then-apply walk. Both are bit-identical by contract (the
 * differential and fingerprint tests prove it), so the ratio is pure
 * host-side scan throughput. The machine is sized so region
 * streaming dominates: every region present, few young PTEs.
 */
double
bigScanPtesPerSec(bool sharded)
{
    FrameTable frames(static_cast<std::uint32_t>(
        kBigScanPages / kBigResidencyStride + 1));
    AddressSpace space(0);
    const Vpn base = space.map("big-scan", kBigScanPages);
    MmCosts costs;
    MgLruConfig cfg;
    cfg.scanMode = ScanMode::All;
    cfg.agingLowPages = 0;
    cfg.agingEvictGate = 0;
    cfg.shardedScan = sharded;
    cfg.scanWorkers = sharded ? kBigScanWorkers : 1;
    MgLruPolicy policy(frames, {&space}, costs, Rng(1), cfg);

    PageTable &table = space.table();
    std::vector<Vpn> rearm;
    std::uint64_t i = 0;
    for (Vpn v = base; v < base + kBigScanPages;
         v += kBigResidencyStride, ++i) {
        const Pfn pfn = frames.allocate(&space, v, false);
        table.mapFrame(v, pfn);
        policy.onPageResident(pfn, ResidencyKind::NewAnon, 0);
        if (i % kBigAccessedStride == 0)
            rearm.push_back(v);
    }

    CostSink sink;
    for (const Vpn v : rearm)
        table.setAccessed(v);
    policy.age(sink); // warm pass

    const std::uint64_t before = policy.stats().ptesScanned;
    double secs = 0.0;
    for (int pass = 0; pass < kBigScanPasses; ++pass) {
        for (const Vpn v : rearm)
            table.setAccessed(v); // untimed re-arm
        const auto t0 = Clock::now();
        policy.age(sink);
        secs += secondsSince(t0);
    }
    return static_cast<double>(policy.stats().ptesScanned - before) /
           secs;
}

/**
 * FNV-1a over every integral field of a trial — the same fingerprint
 * tests/harness/bit_identity_test.cpp pins. perf_core only needs
 * equality between the serial and sharded runs; the absolute value is
 * pinned by the test suite.
 */
std::uint64_t
trialFingerprint(const TrialResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto add = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    add(r.runtimeNs);
    add(r.majorFaults);
    add(r.kernel.majorFaults);
    add(r.kernel.minorFaults);
    add(r.kernel.ioWaitFaults);
    add(r.kernel.evictions);
    add(r.kernel.dirtyWritebacks);
    add(r.kernel.cleanDrops);
    add(r.kernel.writebackRemaps);
    add(r.kernel.readaheadReads);
    add(r.kernel.readaheadHits);
    add(r.kernel.directReclaims);
    add(r.kernel.directAging);
    add(r.kernel.allocStalls);
    add(r.policy.ptesScanned);
    add(r.policy.regionsVisited);
    add(r.policy.regionsSkipped);
    add(r.policy.rmapWalks);
    add(r.policy.promotions);
    add(r.policy.demotions);
    add(r.policy.agingPasses);
    add(r.policy.evicted);
    add(r.policy.refaults);
    add(r.policy.secondChances);
    add(r.swap.reads);
    add(r.swap.writes);
    add(r.swap.totalReadLatency);
    add(r.swap.totalWriteLatency);
    add(r.swap.peakQueueDepth);
    add(r.mglru.genCreations);
    add(r.mglru.genCreationBlocked);
    add(r.mglru.bloomInsertions);
    add(r.mglru.neighborScans);
    add(r.mglru.neighborPromotions);
    add(r.mglru.tierProtected);
    add(r.mglru.staleRefaults);
    add(r.mglru.lateGenCreations);
    for (const SimTime t : r.threadFinishNs)
        add(t);
    for (const std::uint64_t f : r.threadBlockedFaults)
        add(f);
    add(r.kswapdCpuNs);
    add(r.agingCpuNs);
    add(r.agingPasses);
    return h;
}

ExperimentConfig
bigCell(ScalePreset scale)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::YcsbA;
    cfg.policy = PolicyKind::MgLru;
    cfg.swap = SwapKind::Ssd;
    // YCSB touches the first and last page of each 4-page item, so
    // ~half the 64M-page footprint (33.6M pages) is ever resident.
    // 0.50 puts the fast tier just below that: the machine fills and
    // the policy ages and evicts under real pressure, but does not
    // thrash through 256 GiB of swap (0.45 did, 0.55 never fills) —
    // the configuration the paper's big-memory characterization
    // targets.
    cfg.capacityRatio = 0.50;
    cfg.scale = scale;
    cfg.baseSeed = 12345;
    return cfg;
}

/** Serial-vs-sharded fingerprint identity on a 1M-page trial. */
bool
big1mFingerprintIdentity()
{
    ExperimentConfig cfg = bigCell(ScalePreset::Big1M);
    cfg.capacityRatio = 0.5;
    cfg.mgTweak = [](MgLruConfig &mg) { mg.shardedScan = false; };
    const std::uint64_t serial =
        trialFingerprint(runTrial(cfg, cfg.baseSeed));
    cfg.mgTweak = [](MgLruConfig &mg) {
        mg.shardedScan = true;
        mg.scanWorkers = kBigScanWorkers;
    };
    const std::uint64_t sharded =
        trialFingerprint(runTrial(cfg, cfg.baseSeed));
    return serial == sharded;
}

std::vector<ExperimentConfig>
sweepCells()
{
    std::vector<ExperimentConfig> cells;
    ExperimentConfig base;
    base.scale = ScalePreset::Small;
    base.capacityRatio = 0.5;
    base.swap = SwapKind::Ssd;
    for (WorkloadKind wk :
         {WorkloadKind::Tpch, WorkloadKind::PageRank,
          WorkloadKind::YcsbA}) {
        base.workload = wk;
        for (PolicyKind pk : {PolicyKind::Clock, PolicyKind::MgLru}) {
            base.policy = pk;
            cells.push_back(base);
        }
    }
    return cells;
}

bool
sameResults(const std::vector<ExperimentResult> &a,
            const std::vector<ExperimentResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t c = 0; c < a.size(); ++c) {
        if (a[c].trials.size() != b[c].trials.size())
            return false;
        for (std::size_t t = 0; t < a[c].trials.size(); ++t) {
            if (a[c].trials[t].runtimeNs != b[c].trials[t].runtimeNs ||
                a[c].trials[t].majorFaults !=
                    b[c].trials[t].majorFaults) {
                return false;
            }
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_core.json";
    bool smoke_big_machine = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--smoke-big-machine")
            smoke_big_machine = true;
        else
            out_path = argv[i];
    }

    if (smoke_big_machine) {
        // CI smoke: one 64M-page (256 GiB) trial must complete inside
        // the step's wall-clock budget, and the 1M-page serial-vs-
        // sharded fingerprints must agree. No JSON is written.
        const ExperimentConfig big_cfg = bigCell(ScalePreset::Big64M);
        std::printf("big-machine smoke: %s at Big64M (64M pages)...\n",
                    big_cfg.label().c_str());
        const auto big_start = Clock::now();
        const TrialResult big = runTrial(big_cfg, big_cfg.baseSeed);
        const double big_secs = secondsSince(big_start);
        const double faults =
            static_cast<double>(big.kernel.majorFaults) +
            static_cast<double>(big.kernel.minorFaults);
        std::printf("  trial: %.1f s wall, %.0f faults, "
                    "%llu evictions, %llu PTEs scanned\n",
                    big_secs, faults,
                    static_cast<unsigned long long>(
                        big.kernel.evictions),
                    static_cast<unsigned long long>(
                        big.policy.ptesScanned));
        const bool identity = big1mFingerprintIdentity();
        std::printf("  serial/sharded fingerprint identity: %s\n",
                    identity ? "yes" : "NO");

        // Checkpoint round-trip at Big1M: a mid-trial snapshot must
        // restore bit-identically at machine scale, not just on the
        // Small cells the unit tests cover. (The serial/sharded pin
        // above uses mgTweak, which is uncacheable by design, so this
        // runs the plain Big1M cell.)
        ExperimentConfig ck_cfg = bigCell(ScalePreset::Big1M);
        const TrialResult ck_straight = runTrial(ck_cfg, ck_cfg.baseSeed);
        const std::uint64_t ck_want = trialFingerprint(ck_straight);
        ck_cfg.checkpointAt = ck_straight.totalTouches / 2;
        CheckpointCache::instance().clear();
        const std::uint64_t ck_cold =
            trialFingerprint(runTrial(ck_cfg, ck_cfg.baseSeed));
        const std::uint64_t ck_warm =
            trialFingerprint(runTrial(ck_cfg, ck_cfg.baseSeed));
        const bool ck_ok = ck_cold == ck_want && ck_warm == ck_want &&
                           CheckpointCache::instance().hits() > 0;
        std::printf("  Big1M checkpoint round-trip identity: %s\n",
                    ck_ok ? "yes" : "NO");
        return (identity && ck_ok) ? 0 : 2;
    }

    // --- 1. Event-queue dispatch throughput. -----------------------
    constexpr std::uint64_t kQueueEvents = 3000000;
    constexpr unsigned kOutstanding = 2048;
    std::printf("event queue: %llu events, %u outstanding, "
                "median of 3...\n",
                static_cast<unsigned long long>(kQueueEvents),
                kOutstanding);
    // Interleave a warmup of each, then take the median of three
    // alternating runs of each queue (wall-clock noise on a shared
    // host easily exceeds the margin this benchmark guards).
    holdEventsPerSec<LegacyHeapQueue>(kQueueEvents / 10, kOutstanding);
    holdEventsPerSec<EventQueue>(kQueueEvents / 10, kOutstanding);
    const auto median3 = [](std::function<double()> sample) {
        double v[3] = {sample(), sample(), sample()};
        std::sort(std::begin(v), std::end(v));
        return v[1];
    };
    const double hold_legacy_eps = median3(
        [] { return holdEventsPerSec<LegacyHeapQueue>(kQueueEvents,
                                                      kOutstanding); });
    const double hold_wheel_eps = median3(
        [] { return holdEventsPerSec<EventQueue>(kQueueEvents,
                                                 kOutstanding); });
    const double queue_speedup = hold_wheel_eps / hold_legacy_eps;
    std::printf("  hold model   legacy heap %.0f ev/s, "
                "timing wheel %.0f ev/s: %.2fx\n",
                hold_legacy_eps, hold_wheel_eps, queue_speedup);
    const double churn_legacy_eps = median3(
        [] { return churnEventsPerSec<LegacyHeapQueue>(kQueueEvents,
                                                       kOutstanding); });
    const double churn_wheel_eps = median3(
        [] { return churnEventsPerSec<EventQueue>(kQueueEvents,
                                                  kOutstanding); });
    const double churn_speedup = churn_wheel_eps / churn_legacy_eps;
    std::printf("  actor churn  legacy heap %.0f ev/s, "
                "timing wheel %.0f ev/s: %.2fx\n\n",
                churn_legacy_eps, churn_wheel_eps, churn_speedup);

    // --- 2. Aging-scan throughput: bitmap word path vs reference. --
    std::printf("aging scan: %llu-page VMA, %d passes, "
                "median of 3...\n",
                static_cast<unsigned long long>(kScanPages),
                kScanPasses);
    constexpr std::size_t kNumPatterns =
        sizeof(kScanPatterns) / sizeof(kScanPatterns[0]);
    double scan_ref_pps[kNumPatterns];
    double scan_word_pps[kNumPatterns];
    double scan_speedup[kNumPatterns];
    double scan_geomean = 1.0;
    for (std::size_t p = 0; p < kNumPatterns; ++p) {
        const ScanPattern &pat = kScanPatterns[p];
        scan_ref_pps[p] = median3(
            [&pat] { return scanPtesPerSec(pat, true); });
        scan_word_pps[p] = median3(
            [&pat] { return scanPtesPerSec(pat, false); });
        scan_speedup[p] = scan_word_pps[p] / scan_ref_pps[p];
        scan_geomean *= scan_speedup[p];
        std::printf("  %-36s reference %.0f PTEs/s, "
                    "word-at-a-time %.0f PTEs/s: %.2fx\n",
                    pat.label, scan_ref_pps[p], scan_word_pps[p],
                    scan_speedup[p]);
    }
    scan_geomean = std::pow(scan_geomean, 1.0 / kNumPatterns);
    std::printf("  geomean speedup: %.2fx\n\n", scan_geomean);

    // --- 3. Single-trial wall time (Small scale, min of 5). --------
    ExperimentConfig trial_cfg;
    trial_cfg.workload = WorkloadKind::Tpch;
    trial_cfg.policy = PolicyKind::MgLru;
    trial_cfg.scale = ScalePreset::Small;
    runTrial(trial_cfg, 1); // warm dataset caches
    TrialResult trial;
    double trial_secs = 1e30;
    for (int rep = 0; rep < 5; ++rep) {
        const auto trial_start = Clock::now();
        trial = runTrial(trial_cfg, 1);
        trial_secs = std::min(trial_secs, secondsSince(trial_start));
    }
    std::printf("single trial (%s, Small): %.3f s wall (min of 5), "
                "%llu sim events/s\n\n",
                trial_cfg.label().c_str(), trial_secs,
                static_cast<unsigned long long>(
                    static_cast<double>(trial.kernel.majorFaults) /
                    trial_secs));

    // --- 2b. Metrics overhead: detached vs counters vs sampler. ----
    // Same Small cell timed under the three MetricsMode settings.
    // Off is the detached configuration (one never-taken pointer test
    // per instrumentation site) and doubles as the trial number the
    // <1% regression guard compares against the tracked baseline;
    // Counters adds span/counter recording, Full adds the periodic
    // sampler. Artifact export stays off so only the in-sim cost is
    // measured.
    //
    // Estimator: minimum over interleaved rounds. Scheduling noise on
    // a shared host is strictly additive, so the minimum converges on
    // the true cost, while means/medians of a few samples swing by
    // more than the whole effect being measured; interleaving the
    // modes keeps slow host phases from landing on one mode's
    // samples, and rotating the within-round order keeps any mode's
    // cache footprint from always preceding the same neighbour.
    // Results within a few percent of zero (either sign) mean the
    // overhead is below this host's noise floor.
    constexpr int kOverheadRounds = 175;
    std::printf("metrics overhead (%s, Small), min of %d "
                "interleaved rounds, process CPU time...\n",
                trial_cfg.label().c_str(), kOverheadRounds);
    const auto timedTrial = [&trial_cfg](MetricsMode mode) {
        ExperimentConfig cfg = trial_cfg;
        cfg.metrics.mode = mode;
        const double start = cpuSeconds();
        runTrial(cfg, 1);
        return cpuSeconds() - start;
    };
    constexpr MetricsMode kModes[3] = {
        MetricsMode::Off, MetricsMode::Counters, MetricsMode::Full};
    double mode_secs[3] = {1e30, 1e30, 1e30};
    for (int round = 0; round < kOverheadRounds; ++round) {
        for (int i = 0; i < 3; ++i) {
            const int m = (round + i) % 3;
            mode_secs[m] =
                std::min(mode_secs[m], timedTrial(kModes[m]));
        }
    }
    const double metrics_off_secs = mode_secs[0];
    const double metrics_counters_secs = mode_secs[1];
    const double metrics_full_secs = mode_secs[2];
    const double counters_overhead_pct =
        (metrics_counters_secs / metrics_off_secs - 1.0) * 100.0;
    const double full_overhead_pct =
        (metrics_full_secs / metrics_off_secs - 1.0) * 100.0;
    std::printf("  detached:        %.3f s\n", metrics_off_secs);
    std::printf("  counters+spans:  %.3f s (%+.2f%%)\n",
                metrics_counters_secs, counters_overhead_pct);
    std::printf("  full sampler:    %.3f s (%+.2f%%)\n\n",
                metrics_full_secs, full_overhead_pct);

    // --- 4. Serial cells vs pooled cross-cell sweep. ---------------
    std::vector<ExperimentConfig> cells = sweepCells();
    for (auto &c : cells)
        c.trials = 3;
    std::printf("sweep: %zu cells x %u trials, min of 3 alternating "
                "rounds...\n",
                cells.size(), effectiveTrials(cells.front().trials));

    // Alternate serial and pooled within each round (min of 3) so a
    // slow host phase cannot land entirely on one side.
    double serial_secs = 1e30;
    double pooled_secs = 1e30;
    bool identical = true;
    for (int round = 0; round < 3; ++round) {
        const auto serial_start = Clock::now();
        std::vector<ExperimentResult> serial;
        for (const ExperimentConfig &cell : cells)
            serial.push_back(std::move(runSweep({cell}).front()));
        serial_secs =
            std::min(serial_secs, secondsSince(serial_start));

        const auto pooled_start = Clock::now();
        const std::vector<ExperimentResult> pooled = runSweep(cells);
        pooled_secs =
            std::min(pooled_secs, secondsSince(pooled_start));

        identical = identical && sameResults(serial, pooled);
    }

    // Mirror the sweep layer's own worker resolution: on hosts where
    // the pool would not pay for itself it drains inline instead.
    const unsigned hw_threads = std::thread::hardware_concurrency();
    const std::size_t sweep_tasks =
        cells.size() * effectiveTrials(cells.front().trials);
    const bool degraded_to_serial =
        std::min<std::size_t>(hw_threads == 0 ? 4 : hw_threads,
                              sweep_tasks / 2) <= 1;

    const double sweep_speedup = serial_secs / pooled_secs;
    std::printf("  serial cells: %.3f s\n", serial_secs);
    std::printf("  pooled sweep: %.3f s%s\n", pooled_secs,
                degraded_to_serial ? " (degraded to serial drain)"
                                   : "");
    std::printf("  speedup:      %.2fx (identical results: %s)\n\n",
                sweep_speedup, identical ? "yes" : "NO");

    // --- 5. Big machine: 64M pages, serial vs sharded scan. --------
    std::printf("big machine: %llu-page scan (1/%u resident), "
                "%d passes...\n",
                static_cast<unsigned long long>(kBigScanPages),
                kBigResidencyStride, kBigScanPasses);
    const double big_serial_pps = bigScanPtesPerSec(false);
    const double big_sharded_pps = bigScanPtesPerSec(true);
    const double big_scan_speedup = big_serial_pps > 0.0
                                        ? big_sharded_pps /
                                              big_serial_pps
                                        : 0.0;
    std::printf("  aging scan   serial %.0f PTEs/s, sharded@%u "
                "%.0f PTEs/s: %.2fx\n",
                big_serial_pps, kBigScanWorkers, big_sharded_pps,
                big_scan_speedup);

    const ExperimentConfig big_cfg = bigCell(ScalePreset::Big64M);
    const auto big_start = Clock::now();
    const TrialResult big_trial = runTrial(big_cfg, big_cfg.baseSeed);
    const double big_trial_secs = secondsSince(big_start);
    const double big_faults =
        static_cast<double>(big_trial.kernel.majorFaults) +
        static_cast<double>(big_trial.kernel.minorFaults);
    const double big_faults_per_sec = big_faults / big_trial_secs;
    std::printf("  trial (%s, Big64M): %.1f s wall, "
                "%.0f faults/s, %llu evictions\n",
                big_cfg.label().c_str(), big_trial_secs,
                big_faults_per_sec,
                static_cast<unsigned long long>(
                    big_trial.kernel.evictions));

    const bool big_identity = big1mFingerprintIdentity();
    std::printf("  serial/sharded fingerprint identity (Big1M): %s\n\n",
                big_identity ? "yes" : "NO");

    // --- 6. Fast-forward: checkpointed sweep, functional warmup. ---
    // A fig06-style capacity grid where every trial shares a long
    // warmup prefix: the cold pass simulates each prefix and captures
    // it; the warm pass (a re-sweep, or the same sweep re-run after a
    // parameter tweak past the boundary) restores instead. Boundary at
    // 80% of the trial models the warmup-dominated sweeps the cache
    // exists for. Serial workers isolate the restore win from pool
    // effects; the identity check keeps the speedup honest.
    ExperimentConfig ckpt_probe;
    ckpt_probe.workload = WorkloadKind::YcsbA;
    ckpt_probe.policy = PolicyKind::MgLru;
    ckpt_probe.swap = SwapKind::Ssd;
    ckpt_probe.scale = ScalePreset::Small;
    const std::uint64_t ckpt_touches =
        runTrial(ckpt_probe, trialSeed(ckpt_probe, 0)).totalTouches;
    const std::uint64_t ckpt_boundary = ckpt_touches * 4 / 5;
    std::vector<ExperimentConfig> ckpt_cells;
    for (double capacity : {0.4, 0.5, 0.6, 0.7}) {
        ExperimentConfig cell = ckpt_probe;
        cell.capacityRatio = capacity;
        cell.trials = 3;
        cell.checkpointAt = ckpt_boundary;
        ckpt_cells.push_back(cell);
    }
    std::printf("checkpoint sweep: %zu cells x %u trials, boundary at "
                "%llu refs, min of 3 rounds...\n",
                ckpt_cells.size(), effectiveTrials(ckpt_cells.front().trials),
                static_cast<unsigned long long>(ckpt_boundary));
    SweepOptions ckpt_workers;
    ckpt_workers.workers = 1;
    double ckpt_cold_secs = 1e30;
    double ckpt_warm_secs = 1e30;
    bool ckpt_identical = true;
    for (int round = 0; round < 3; ++round) {
        CheckpointCache::instance().clear();
        const auto cold_start = Clock::now();
        const std::vector<ExperimentResult> cold =
            runSweep(ckpt_cells, ckpt_workers);
        ckpt_cold_secs =
            std::min(ckpt_cold_secs, secondsSince(cold_start));

        const auto warm_start = Clock::now();
        const std::vector<ExperimentResult> warm =
            runSweep(ckpt_cells, ckpt_workers);
        ckpt_warm_secs =
            std::min(ckpt_warm_secs, secondsSince(warm_start));

        ckpt_identical = ckpt_identical && sameResults(cold, warm);
    }
    const double ckpt_speedup = ckpt_cold_secs / ckpt_warm_secs;
    std::printf("  cold sweep: %.3f s\n", ckpt_cold_secs);
    std::printf("  warm sweep: %.3f s\n", ckpt_warm_secs);
    std::printf("  speedup:    %.2fx (identical results: %s)\n",
                ckpt_speedup, ckpt_identical ? "yes" : "NO");
    CheckpointCache::instance().clear();

    // Time-to-first-measurement on the big machine: how long until a
    // Big64M trial is parked at its measurement boundary, with the
    // warmup prefix simulated at full device detail vs functionally
    // (faults resolve instantly, no queueing/writeback detail). The
    // boundary sits at 4/5 of the trial so the warmup prefix spans
    // fill AND steady-state faulting — a half-trial boundary ends
    // inside the fill phase, where no device IO exists to elide and
    // functional warmup measures ~1x by construction.
    const std::uint64_t big_boundary = big_trial.totalTouches * 4 / 5;
    std::printf("big64m first measurement: boundary at %llu refs...\n",
                static_cast<unsigned long long>(big_boundary));
    double ff_full_secs = 0.0;
    double ff_functional_secs = 0.0;
    {
        TrialRigOptions opts;
        opts.deferObservers = true;
        const auto start = Clock::now();
        TrialRig rig(big_cfg, big_cfg.baseSeed, opts);
        std::uint64_t used = 0;
        const bool ok =
            rig.runToBoundary(big_boundary, 2000000000ull, used);
        ff_full_secs = secondsSince(start);
        std::printf("  full detail: %.1f s%s\n", ff_full_secs,
                    ok ? "" : " (boundary not reached!)");
    }
    {
        TrialRigOptions opts;
        opts.deferObservers = true;
        opts.functional = true;
        const auto start = Clock::now();
        TrialRig rig(big_cfg, big_cfg.baseSeed, opts);
        std::uint64_t used = 0;
        const bool ok =
            rig.runToBoundary(big_boundary, 2000000000ull, used);
        rig.mm->setFunctionalMode(false);
        ff_functional_secs = secondsSince(start);
        std::printf("  functional warmup: %.1f s%s\n",
                    ff_functional_secs,
                    ok ? "" : " (boundary not reached!)");
    }
    const double ff_speedup = ff_functional_secs > 0.0
                                  ? ff_full_secs / ff_functional_secs
                                  : 0.0;
    std::printf("  speedup: %.2fx\n\n", ff_speedup);

    // --- 7. Checkpoint serializer: FrameTable lanes, whole images. -
    // A fully mapped table sliced across two dozen spaces, captured
    // through the checkpoint layer's StateIO with the rig's space
    // table. StateIO::ownerLane memoizes per distinct owner; the
    // reference loop re-creates the removed per-frame pattern — one
    // std::function call and rig scan per mapped frame,
    // which is what held capture near 0.5 GB/s — on the same table,
    // through the same public rmap the old loop read. The speedup
    // estimate charges the full serialize cost to both sides, so it
    // reads conservative.
    constexpr std::uint32_t kSerFrames = 1u << 23;
    constexpr std::size_t kSerSpaces = 24;
    constexpr std::uint32_t kSerRun = 4096;
    std::printf("serializer: %u frames, %zu spaces, min of 5...\n",
                kSerFrames, kSerSpaces);
    std::vector<std::unique_ptr<AddressSpace>> ser_spaces;
    for (std::size_t i = 0; i < kSerSpaces; ++i)
        ser_spaces.push_back(std::make_unique<AddressSpace>(
            static_cast<std::uint32_t>(i)));
    FrameTable ser_frames(kSerFrames);
    for (std::uint32_t pfn = 0; pfn < kSerFrames; ++pfn) {
        // Runs of kSerRun frames per space: the contiguous placement
        // allocation order yields, cycling through every owner.
        AddressSpace *owner =
            ser_spaces[(pfn / kSerRun) % kSerSpaces].get();
        ser_frames.allocate(owner, pfn, false);
    }
    const std::function<std::uint32_t(const AddressSpace &)>
        ser_space_id = [&ser_spaces](const AddressSpace &space) {
            for (std::size_t i = 0; i < ser_spaces.size(); ++i)
                if (ser_spaces[i].get() == &space)
                    return static_cast<std::uint32_t>(i);
            return UINT32_MAX;
        };
    const auto min5 = [](const std::function<double()> &sample) {
        double best = 1e30;
        for (int i = 0; i < 5; ++i)
            best = std::min(best, sample());
        return best;
    };
    const double ser_ref_secs = min5([&] {
        std::vector<std::uint32_t> ids(kSerFrames);
        const auto start = Clock::now();
        for (std::uint32_t pfn = 0; pfn < kSerFrames; ++pfn)
            ids[pfn] = ser_space_id(*ser_frames.rmap(pfn).space);
        const double secs = secondsSince(start);
        benchKeepAlive(ids.data());
        return secs;
    });
    StateLinks ser_links;
    for (const auto &space : ser_spaces)
        ser_links.spaces.push_back(space.get());
    std::uint64_t ser_bytes = 0;
    const double ser_save_secs = min5([&] {
        Sink sink;
        const auto start = Clock::now();
        StateIO sizer;
        ser_frames.visitState(sizer);
        sink.reserve(sizer.size());
        StateIO io(sink, &ser_links);
        ser_frames.visitState(io);
        const double secs = secondsSince(start);
        ser_bytes = sink.size();
        benchKeepAlive(sink.data().data());
        return secs;
    });
    Sink ser_sink;
    StateIO ser_save(ser_sink, &ser_links);
    ser_frames.visitState(ser_save);
    FrameTable ser_target(kSerFrames);
    const double ser_restore_secs = min5([&] {
        Source src(ser_sink.data().data(), ser_sink.size());
        const auto start = Clock::now();
        StateIO io(src, &ser_links);
        ser_target.visitState(io);
        const double secs = secondsSince(start);
        benchKeepAlive(&ser_target);
        return secs;
    });
    const double ser_payload_mb =
        static_cast<double>(ser_bytes) / 1e6;
    const double ser_save_gbps =
        static_cast<double>(ser_bytes) / ser_save_secs / 1e9;
    const double ser_restore_gbps =
        static_cast<double>(ser_bytes) / ser_restore_secs / 1e9;
    const double ser_speedup =
        (ser_ref_secs + ser_save_secs) / ser_save_secs;
    std::printf("  payload: %.0f MB\n", ser_payload_mb);
    std::printf("  per-frame space_id reference: %.3f s\n",
                ser_ref_secs);
    std::printf("  save:    %.3f s (%.2f GB/s, %.1fx vs per-frame)\n",
                ser_save_secs, ser_save_gbps, ser_speedup);
    std::printf("  restore: %.3f s (%.2f GB/s)\n", ser_restore_secs,
                ser_restore_gbps);

    // Image level: the whole captureCheckpoint / restoreCheckpoint
    // path, section framing and checksums included, on a Big1M
    // machine parked at the boundary pagesim_bench's ckpt-big1m cells
    // use. Each restore sample gets a freshly built target rig (built
    // outside the timed region), as a warm trial does.
    constexpr std::uint64_t kImageBoundary = 1250000;
    const ExperimentConfig img_cfg = bigCell(ScalePreset::Big1M);
    const std::uint64_t img_hash = configPrefixHash(img_cfg);
    TrialRigOptions img_opts;
    img_opts.deferObservers = true;
    TrialRig img_rig(img_cfg, img_cfg.baseSeed, img_opts);
    std::uint64_t img_used = 0;
    bool img_ok = img_rig.runToBoundary(kImageBoundary, 2000000000ull,
                                        img_used);
    Checkpoint img_ckpt;
    const double img_capture_secs = min5([&] {
        Checkpoint ckpt;
        const auto start = Clock::now();
        const CheckpointError err = captureCheckpoint(
            img_rig.view(), img_hash, img_cfg.baseSeed, kImageBoundary,
            ckpt);
        const double secs = secondsSince(start);
        img_ok = img_ok && err.ok();
        img_ckpt = std::move(ckpt);
        return secs;
    });
    const double img_restore_secs = min5([&] {
        TrialRigOptions opts;
        opts.forRestore = true;
        opts.deferObservers = true;
        TrialRig target(img_cfg, img_cfg.baseSeed, opts);
        const auto start = Clock::now();
        const CheckpointError err = restoreCheckpoint(
            target.view(), img_hash, img_cfg.baseSeed, img_ckpt);
        const double secs = secondsSince(start);
        img_ok = img_ok && err.ok();
        return secs;
    });
    const double img_mb = static_cast<double>(img_ckpt.bytes.size()) / 1e6;
    const double img_capture_gbps = img_mb / 1e3 / img_capture_secs;
    const double img_restore_gbps = img_mb / 1e3 / img_restore_secs;
    std::printf("  image (%s, Big1M, %.1f MB): capture %.2f GB/s, "
                "restore %.2f GB/s%s\n\n",
                img_cfg.label().c_str(), img_mb, img_capture_gbps,
                img_restore_gbps, img_ok ? "" : " (FAILED)");

    // --- Emit the JSON baseline. -----------------------------------
    const unsigned cores = std::thread::hardware_concurrency();
    FILE *out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"schema_version\": 1,\n");
    std::fprintf(out, "  \"host\": {\"cores\": %u},\n", cores);
    std::fprintf(out,
                 "  \"event_queue\": {\n"
                 "    \"events\": %llu,\n"
                 "    \"outstanding\": %u,\n"
                 "    \"hold\": {\n"
                 "      \"legacy_heap_events_per_sec\": %.0f,\n"
                 "      \"wheel_events_per_sec\": %.0f,\n"
                 "      \"speedup\": %.3f\n    },\n"
                 "    \"churn\": {\n"
                 "      \"legacy_heap_events_per_sec\": %.0f,\n"
                 "      \"wheel_events_per_sec\": %.0f,\n"
                 "      \"speedup\": %.3f\n    },\n"
                 "    \"speedup\": %.3f\n  },\n",
                 static_cast<unsigned long long>(kQueueEvents),
                 kOutstanding, hold_legacy_eps, hold_wheel_eps,
                 queue_speedup, churn_legacy_eps, churn_wheel_eps,
                 churn_speedup, queue_speedup);
    std::fprintf(out,
                 "  \"aging_scan\": {\n"
                 "    \"pages\": %llu,\n"
                 "    \"passes\": %d,\n"
                 "    \"patterns\": {\n",
                 static_cast<unsigned long long>(kScanPages),
                 kScanPasses);
    for (std::size_t p = 0; p < kNumPatterns; ++p) {
        std::fprintf(out,
                     "      \"%s\": {\n"
                     "        \"reference_ptes_per_sec\": %.0f,\n"
                     "        \"word_ptes_per_sec\": %.0f,\n"
                     "        \"speedup\": %.3f\n      }%s\n",
                     kScanPatterns[p].key, scan_ref_pps[p],
                     scan_word_pps[p], scan_speedup[p],
                     p + 1 < kNumPatterns ? "," : "");
    }
    std::fprintf(out,
                 "    },\n"
                 "    \"geomean_speedup\": %.3f\n  },\n",
                 scan_geomean);
    std::fprintf(out,
                 "  \"trial\": {\n"
                 "    \"cell\": \"%s\",\n"
                 "    \"scale\": \"Small\",\n"
                 "    \"estimator\": \"min of 5\",\n"
                 "    \"wall_seconds\": %.4f\n  },\n",
                 trial_cfg.label().c_str(), trial_secs);
    std::fprintf(out,
                 "  \"metrics_overhead\": {\n"
                 "    \"cell\": \"%s\",\n"
                 "    \"scale\": \"Small\",\n"
                 "    \"estimator\": \"min of %d interleaved rounds, process CPU time\",\n"
                 "    \"detached_seconds\": %.4f,\n"
                 "    \"counters_seconds\": %.4f,\n"
                 "    \"full_sampler_seconds\": %.4f,\n"
                 "    \"counters_overhead_pct\": %.2f,\n"
                 "    \"full_sampler_overhead_pct\": %.2f\n  },\n",
                 trial_cfg.label().c_str(), kOverheadRounds,
                 metrics_off_secs, metrics_counters_secs,
                 metrics_full_secs, counters_overhead_pct,
                 full_overhead_pct);
    std::fprintf(out,
                 "  \"big_machine\": {\n"
                 "    \"pages\": %llu,\n"
                 "    \"scan\": {\n"
                 "      \"workers\": %u,\n"
                 "      \"passes\": %d,\n"
                 "      \"serial_ptes_per_sec\": %.0f,\n"
                 "      \"sharded_ptes_per_sec\": %.0f,\n"
                 "      \"speedup\": %.3f\n    },\n"
                 "    \"trial\": {\n"
                 "      \"cell\": \"%s\",\n"
                 "      \"scale\": \"Big64M\",\n"
                 "      \"wall_seconds\": %.2f,\n"
                 "      \"faults_per_sec\": %.0f\n    },\n"
                 "    \"fingerprint_identity\": %s\n  },\n",
                 static_cast<unsigned long long>(kBigScanPages),
                 kBigScanWorkers, kBigScanPasses, big_serial_pps,
                 big_sharded_pps, big_scan_speedup,
                 big_cfg.label().c_str(), big_trial_secs,
                 big_faults_per_sec, big_identity ? "true" : "false");
    std::fprintf(out,
                 "  \"sweep\": {\n"
                 "    \"cells\": %zu,\n"
                 "    \"trials_per_cell\": %u,\n"
                 "    \"estimator\": \"min of 3 alternating rounds\",\n"
                 "    \"serial_cells_seconds\": %.4f,\n"
                 "    \"pooled_sweep_seconds\": %.4f,\n"
                 "    \"speedup\": %.3f,\n"
                 "    \"degraded_to_serial\": %s,\n"
                 "    \"identical_results\": %s\n  },\n",
                 cells.size(), effectiveTrials(cells.front().trials),
                 serial_secs, pooled_secs, sweep_speedup,
                 degraded_to_serial ? "true" : "false",
                 identical ? "true" : "false");
    std::fprintf(out,
                 "  \"checkpoint\": {\n"
                 "    \"sweep\": {\n"
                 "      \"cells\": %zu,\n"
                 "      \"trials_per_cell\": %u,\n"
                 "      \"boundary_refs\": %llu,\n"
                 "      \"estimator\": \"min of 3 rounds\",\n"
                 "      \"cold_seconds\": %.4f,\n"
                 "      \"warm_seconds\": %.4f,\n"
                 "      \"speedup\": %.3f,\n"
                 "      \"identical_results\": %s\n    },\n"
                 "    \"big64m_first_measurement\": {\n"
                 "      \"boundary_refs\": %llu,\n"
                 "      \"full_detail_seconds\": %.2f,\n"
                 "      \"functional_seconds\": %.2f,\n"
                 "      \"speedup\": %.3f\n    }\n  },\n",
                 ckpt_cells.size(),
                 effectiveTrials(ckpt_cells.front().trials),
                 static_cast<unsigned long long>(ckpt_boundary),
                 ckpt_cold_secs, ckpt_warm_secs, ckpt_speedup,
                 ckpt_identical ? "true" : "false",
                 static_cast<unsigned long long>(big_boundary),
                 ff_full_secs, ff_functional_secs, ff_speedup);
    std::fprintf(out,
                 "  \"serializer\": {\n"
                 "    \"frames\": %u,\n"
                 "    \"spaces\": %zu,\n"
                 "    \"payload_mb\": %.1f,\n"
                 "    \"estimator\": \"min of 5\",\n"
                 "    \"per_frame_space_id_seconds\": %.4f,\n"
                 "    \"save_seconds\": %.4f,\n"
                 "    \"save_gb_per_sec\": %.3f,\n"
                 "    \"restore_seconds\": %.4f,\n"
                 "    \"restore_gb_per_sec\": %.3f,\n"
                 "    \"speedup_vs_per_frame\": %.3f,\n"
                 "    \"image\": {\n"
                 "      \"cell\": \"%s\",\n"
                 "      \"scale\": \"Big1M\",\n"
                 "      \"boundary_refs\": %llu,\n"
                 "      \"image_mb\": %.1f,\n"
                 "      \"estimator\": \"min of 5\",\n"
                 "      \"capture_seconds\": %.4f,\n"
                 "      \"capture_gb_per_sec\": %.3f,\n"
                 "      \"restore_seconds\": %.4f,\n"
                 "      \"restore_gb_per_sec\": %.3f,\n"
                 "      \"round_trip_ok\": %s\n    }\n  }\n",
                 kSerFrames, kSerSpaces, ser_payload_mb, ser_ref_secs,
                 ser_save_secs, ser_save_gbps, ser_restore_secs,
                 ser_restore_gbps, ser_speedup, img_cfg.label().c_str(),
                 static_cast<unsigned long long>(kImageBoundary), img_mb,
                 img_capture_secs, img_capture_gbps, img_restore_secs,
                 img_restore_gbps, img_ok ? "true" : "false");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());

    // Non-zero exit if the parallel sweep, the sharded scan, or a
    // checkpoint restore ever diverges from the straight-through
    // path, or an image fails to capture or restore — a cheap
    // determinism canary in CI.
    return (identical && big_identity && ckpt_identical && img_ok) ? 0
                                                                   : 2;
}
