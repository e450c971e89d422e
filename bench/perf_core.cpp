/**
 * @file
 * Core-performance benchmark: tracks the simulator's two hot layers
 * and emits a machine-readable BENCH_core.json baseline so the perf
 * trajectory is visible across PRs.
 *
 *  1. Event-queue dispatch throughput: the flat heap of 40-byte
 *     records vs a faithful replica of the original
 *     std::priority_queue + std::function queue, measured two ways at
 *     16, 64 and 2,048 outstanding events (trials peak at 11-44; 2,048
 *     is the shape earlier records used). The hold model (dequeue +
 *     re-enqueue at a random offset, empty callbacks) isolates the
 *     queue operations themselves; the churn run dispatches actor-like
 *     self-rescheduling callbacks (`this` + epoch captures). Both use
 *     the same mixed near/far delta table; each figure is the median
 *     of 3 runs.
 *  2. Aging-scan throughput: PTEs/s of MG-LRU's page-table walk over a
 *     resident machine, across access-pattern shapes (dense, sparse
 *     residency, 10%-accessed).
 *  3. End-to-end trial wall time at ScalePreset::Small (min of 5),
 *     plus the metrics-layer overhead at that scale: the same cell
 *     timed with metrics detached, with counters+spans, and with the
 *     full periodic sampler (guarded at <1% / <5% by the roadmap).
 *  4. A fig-style multi-cell sweep executed two ways: a serial drain
 *     (one worker runs every trial of every cell in order) vs one
 *     pooled cross-cell sweep, with a byte-identity check on the
 *     results. On hosts too small for the pool to pay for itself the
 *     sweep layer degrades to the serial path; the degraded_to_serial
 *     field records that so the tracked speedup is honest rather than
 *     a thread-spawn-overhead artifact.
 *  5. Fast-forward execution: a fig06-style capacity grid swept cold
 *     (simulating every warmup prefix) vs warm (restoring each trial
 *     from the checkpoint cache), with a bit-identity check between
 *     the two; plus time-to-first-measurement on the Big64M machine.
 *  6. Checkpoint serializer throughput: FrameTable lane capture and
 *     restore GB/s, and whole-image captureCheckpoint /
 *     restoreCheckpoint seconds and GB/s (framing and section checksums
 *     included) on Big1M MG-LRU and Clock machines parked mid-trial,
 *     with each image's packed size beside its unpacked lane bytes.
 *     Every GB/s is over unpacked (input) lane bytes, so it stays
 *     comparable across lane-encoding changes.
 *  7. Trial memory: peak RSS of one Big1M YCSB-A/MG-LRU/50% trial on
 *     SSD and on ZRAM, each run in a fresh child process forked
 *     before any pool thread starts (3 samples: min/median/max of
 *     ru_maxrss), with the swap device's peak queue depth beside it.
 *     A saturated SSD's queued I/O is the big-trial memory cost this
 *     section tracks.
 *
 * Usage: perf_core [output.json]   (default: BENCH_core.json in cwd)
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/trial_rig.hh"
#include "kernel/memory_manager.hh"
#include "mem/address_space.hh"
#include "mem/frame_table.hh"
#include "policy/mglru/mglru_policy.hh"
#include "sim/actor.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/simulation.hh"
#include "swap/swap_manager.hh"
#include "workload/workload.hh"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace
{

using namespace pagesim;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** The host CPU's model name (Linux /proc/cpuinfo), JSON-safe, so a
 *  recorded number names the machine it came from. */
std::string
hostCpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        const std::size_t colon = line.find(':');
        if (line.rfind("model name", 0) != 0 || colon == std::string::npos)
            continue;
        std::string model;
        for (char ch : line.substr(colon + 1))
            if (ch != '"' && ch != '\\' && (ch != ' ' || !model.empty()))
                model += ch;
        return model;
    }
    return "unknown";
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
 * Replica of the original event queue (std::priority_queue of
 * std::function records), the baseline every event_queue figure is
 * compared against.
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
 *  scale, some device-latency scale, a few daemon-sleep scale. */
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

/** Actor-like self-rescheduling callbacks: each capture is `this`
 *  plus an epoch, the shape of SimActor's step events. */
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
        const std::uint64_t epoch = idx++;
        q.scheduleAfter(d, [this, epoch] {
            sink += epoch;
            ++fired;
            pump();
        });
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

/** Outstanding-event counts the queue is timed at: 16 and 64 bracket
 *  the 11-44 pending events real trials peak at; 2,048 is the hold
 *  model earlier records used. */
constexpr unsigned kQueueOutstanding[] = {16, 64, 2048};

/** Median events/s of both queues at one outstanding count. */
struct QueueShape
{
    unsigned outstanding = 0;
    double holdLegacy = 0, holdHeap = 0;
    double churnLegacy = 0, churnHeap = 0;
};

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
 * skipped-over cold PTEs are part of the scanned denominator).
 */
double
scanPtesPerSec(const ScanPattern &pat)
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
 * bound, not promotion-bound.
 */
constexpr unsigned kBigAccessedStride = 1024;
/** Timed aging passes per measurement. */
constexpr int kBigScanPasses = 3;

/**
 * PTE-scan throughput of a full aging pass over the 64M-page
 * machine. The machine is sized so region streaming dominates: every
 * region present, few young PTEs.
 */
double
bigScanPtesPerSec()
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
 * equality between a straight and a checkpointed run; the absolute
 * value is pinned by the test suite.
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

/** One whole-image capture/restore measurement (section 6). */
struct ImageSample
{
    ExperimentConfig cfg;
    std::size_t imageBytes = 0;
    std::size_t unpackedBytes = 0;
    double captureSecs = 0.0;
    double restoreSecs = 0.0;

    double imageMb() const { return static_cast<double>(imageBytes) / 1e6; }

    double
    unpackedMb() const
    {
        return static_cast<double>(unpackedBytes) / 1e6;
    }
};

/**
 * Bytes the checkpointed state of @p rig takes with every lane at its
 * raw width, as version-2 images carried it (less the header, section
 * framing and barrier scalars, under a KiB together).
 */
std::size_t
unpackedLaneBytes(const RigView &rig)
{
    StateIO sizer;
    rig.sim->visitState(sizer);
    for (AddressSpace *space : rig.spaces)
        space->visitState(sizer);
    rig.frames->visitState(sizer);
    rig.mm->visitState(sizer);
    rig.swap->visitState(sizer);
    for (Workload *wl : rig.workloads)
        wl->visitState(sizer);
    for (SimActor *actor : rig.actors)
        actor->visitState(sizer);
    return sizer.unpackedSize();
}

/** One trial's memory footprint, as measured in its own process. */
struct MemorySample
{
    double peakRssMb = 0.0;
    std::uint64_t peakQueueDepth = 0;
};

/**
 * Run @p cfg's trial in a forked child and report the child's peak
 * RSS (ru_maxrss) and the swap device's peak queue depth. fork()
 * copies only the calling thread, so this must run before the process
 * starts any pool thread. False if the child could not be run.
 */
bool
forkedTrialMemory(const ExperimentConfig &cfg, MemorySample &out)
{
    int fds[2];
    if (pipe(fds) != 0)
        return false;
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return false;
    }
    if (pid == 0) {
        close(fds[0]);
        const TrialResult r = runTrial(cfg, cfg.baseSeed);
        rusage ru{};
        getrusage(RUSAGE_SELF, &ru);
        const MemorySample sample{static_cast<double>(ru.ru_maxrss) /
                                      1024.0,
                                  r.swap.peakQueueDepth};
        const bool sent = write(fds[1], &sample, sizeof sample) ==
                          static_cast<ssize_t>(sizeof sample);
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    MemorySample sample;
    const bool got = read(fds[0], &sample, sizeof sample) ==
                     static_cast<ssize_t>(sizeof sample);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return false;
    out = sample;
    return true;
}

/** Section 7: trial memory of one swap medium, 3 fresh children. */
struct TrialMemory
{
    static constexpr int kSamples = 3;
    ExperimentConfig cfg;
    /** Sorted peak RSS samples, MiB. */
    std::array<double, kSamples> rssMb{};
    std::uint64_t peakQueueDepth = 0;
    bool ok = true;
};

TrialMemory
measureTrialMemory(SwapKind swap)
{
    TrialMemory out;
    out.cfg = bigCell(ScalePreset::Big1M);
    out.cfg.swap = swap;
    for (double &rss : out.rssMb) {
        MemorySample sample;
        out.ok = forkedTrialMemory(out.cfg, sample) && out.ok;
        rss = sample.peakRssMb;
        out.peakQueueDepth = sample.peakQueueDepth;
    }
    std::sort(out.rssMb.begin(), out.rssMb.end());
    std::printf("  %s, Big1M: peak RSS %.1f / %.1f / %.1f MiB "
                "(min / median / max), peak queue depth %llu%s\n",
                out.cfg.label().c_str(), out.rssMb[0], out.rssMb[1],
                out.rssMb[2],
                static_cast<unsigned long long>(out.peakQueueDepth),
                out.ok ? "" : " (a child FAILED)");
    return out;
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
        // the step's wall-clock budget. No JSON is written.
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

        // Checkpoint round-trip at Big1M: a mid-trial snapshot must
        // restore bit-identically at machine scale, not just on the
        // Small cells the unit tests cover.
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
        return ck_ok ? 0 : 2;
    }

    // --- Trial memory, measured first: its children are forked
    // before any section starts a pool thread. ---------------------
    std::printf("trial memory: Big1M, %d fresh child processes per "
                "medium...\n",
                TrialMemory::kSamples);
    const TrialMemory ssd_memory = measureTrialMemory(SwapKind::Ssd);
    const TrialMemory zram_memory = measureTrialMemory(SwapKind::Zram);
    std::printf("\n");

    // --- 1. Event-queue dispatch throughput. -----------------------
    constexpr std::uint64_t kQueueEvents = 3000000;
    constexpr int kQueueSamples = 3;
    std::printf("event queue: %llu events, median of %d...\n",
                static_cast<unsigned long long>(kQueueEvents),
                kQueueSamples);
    // Wall-clock noise on a shared host easily exceeds the margins
    // measured here: warm both queues up, then take the median of
    // three runs of each.
    const auto median3 = [](std::function<double()> sample) {
        double v[kQueueSamples] = {sample(), sample(), sample()};
        std::sort(std::begin(v), std::end(v));
        return v[1];
    };
    QueueShape queue_shapes[std::size(kQueueOutstanding)];
    for (std::size_t i = 0; i < std::size(kQueueOutstanding); ++i) {
        const unsigned outstanding = kQueueOutstanding[i];
        QueueShape &shape = queue_shapes[i];
        shape.outstanding = outstanding;
        holdEventsPerSec<LegacyHeapQueue>(kQueueEvents / 10, outstanding);
        holdEventsPerSec<EventQueue>(kQueueEvents / 10, outstanding);
        shape.holdLegacy = median3([=] {
            return holdEventsPerSec<LegacyHeapQueue>(kQueueEvents,
                                                     outstanding);
        });
        shape.holdHeap = median3([=] {
            return holdEventsPerSec<EventQueue>(kQueueEvents,
                                                outstanding);
        });
        shape.churnLegacy = median3([=] {
            return churnEventsPerSec<LegacyHeapQueue>(kQueueEvents,
                                                      outstanding);
        });
        shape.churnHeap = median3([=] {
            return churnEventsPerSec<EventQueue>(kQueueEvents,
                                                 outstanding);
        });
        std::printf("  %4u outstanding  hold: legacy %.0f ev/s, flat "
                    "heap %.0f ev/s (%.2fx)  churn: legacy %.0f ev/s, "
                    "flat heap %.0f ev/s (%.2fx)\n",
                    outstanding, shape.holdLegacy, shape.holdHeap,
                    shape.holdHeap / shape.holdLegacy, shape.churnLegacy,
                    shape.churnHeap, shape.churnHeap / shape.churnLegacy);
    }
    std::printf("\n");

    // --- 2. Aging-scan throughput per access pattern. --------------
    std::printf("aging scan: %llu-page VMA, %d passes, "
                "median of 3...\n",
                static_cast<unsigned long long>(kScanPages),
                kScanPasses);
    constexpr std::size_t kNumPatterns =
        sizeof(kScanPatterns) / sizeof(kScanPatterns[0]);
    double scan_word_pps[kNumPatterns];
    for (std::size_t p = 0; p < kNumPatterns; ++p) {
        const ScanPattern &pat = kScanPatterns[p];
        scan_word_pps[p] =
            median3([&pat] { return scanPtesPerSec(pat); });
        std::printf("  %-36s %.0f PTEs/s\n", pat.label,
                    scan_word_pps[p]);
    }
    std::printf("\n");

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

    // --- 4. Serial drain vs pooled cross-cell sweep. ---------------
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
        const std::vector<ExperimentResult> serial =
            runSweep(cells, SweepOptions{1});
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
    std::printf("  serial drain: %.3f s\n", serial_secs);
    std::printf("  pooled sweep: %.3f s%s\n", pooled_secs,
                degraded_to_serial ? " (degraded to serial drain)"
                                   : "");
    std::printf("  speedup:      %.2fx (identical results: %s)\n\n",
                sweep_speedup, identical ? "yes" : "NO");

    // --- 5. Big machine: 64M pages. -------------------------------
    std::printf("big machine: %llu-page scan (1/%u resident), "
                "%d passes...\n",
                static_cast<unsigned long long>(kBigScanPages),
                kBigResidencyStride, kBigScanPasses);
    const double big_scan_pps = bigScanPtesPerSec();
    std::printf("  aging scan   %.0f PTEs/s\n", big_scan_pps);

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
    std::printf("\n");

    // --- 6. Fast-forward: checkpointed sweep. ----------------------
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
    // Big64M trial is parked at its measurement boundary, the prefix
    // simulated at full device detail. The boundary sits at 4/5 of
    // the trial so the prefix spans fill AND steady-state faulting.
    const std::uint64_t big_boundary = big_trial.totalTouches * 4 / 5;
    std::printf("big64m first measurement: boundary at %llu refs...\n",
                static_cast<unsigned long long>(big_boundary));
    double ff_full_secs = 0.0;
    {
        TrialRigOptions opts;
        opts.deferObservers = true;
        const auto start = Clock::now();
        TrialRig rig(big_cfg, big_cfg.baseSeed, opts);
        std::uint64_t used = 0;
        const bool ok =
            rig.runToBoundary(big_boundary, 2000000000ull, used);
        ff_full_secs = secondsSince(start);
        std::printf("  full detail: %.1f s%s\n\n", ff_full_secs,
                    ok ? "" : " (boundary not reached!)");
    }

    // --- 7. Checkpoint serializer: FrameTable records, whole images.
    // A fully mapped table sliced across two dozen spaces, captured
    // through the checkpoint layer's StateIO with the rig's space
    // table. StateIO::recordLanes memoizes per distinct owner; the
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
    StateIO ser_sizer;
    ser_frames.visitState(ser_sizer);
    const std::size_t ser_unpacked = ser_sizer.unpackedSize();
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
        static_cast<double>(ser_unpacked) / 1e6;
    const double ser_packed_mb = static_cast<double>(ser_bytes) / 1e6;
    const double ser_save_gbps =
        static_cast<double>(ser_unpacked) / ser_save_secs / 1e9;
    const double ser_restore_gbps =
        static_cast<double>(ser_unpacked) / ser_restore_secs / 1e9;
    const double ser_speedup =
        (ser_ref_secs + ser_save_secs) / ser_save_secs;
    std::printf("  payload: %.0f MB of lanes, %.1f MB packed\n",
                ser_payload_mb, ser_packed_mb);
    std::printf("  per-frame space_id reference: %.3f s\n",
                ser_ref_secs);
    std::printf("  save:    %.3f s (%.2f GB/s, %.1fx vs per-frame)\n",
                ser_save_secs, ser_save_gbps, ser_speedup);
    std::printf("  restore: %.3f s (%.2f GB/s)\n", ser_restore_secs,
                ser_restore_gbps);

    // Image level: the whole captureCheckpoint / restoreCheckpoint
    // path, section framing and checksums included, on Big1M machines
    // parked at the boundary pagesim_bench's ckpt-big1m cells use, one
    // per policy (their lanes pack differently). Each restore sample
    // gets a freshly built target rig (built outside the timed region),
    // as a warm trial does.
    constexpr std::uint64_t kImageBoundary = 1250000;
    bool img_ok = true;
    const auto measureImage = [&](PolicyKind policy) {
        ImageSample out;
        out.cfg = bigCell(ScalePreset::Big1M);
        out.cfg.policy = policy;
        const ExperimentConfig &cfg = out.cfg;
        const std::uint64_t hash = configPrefixHash(cfg);
        TrialRigOptions opts;
        opts.deferObservers = true;
        TrialRig rig(cfg, cfg.baseSeed, opts);
        std::uint64_t used = 0;
        img_ok = rig.runToBoundary(kImageBoundary, 2000000000ull, used) &&
                 img_ok;
        out.unpackedBytes = unpackedLaneBytes(rig.view());
        Checkpoint ckpt;
        out.captureSecs = min5([&] {
            Checkpoint fresh;
            const auto start = Clock::now();
            const CheckpointError err = captureCheckpoint(
                rig.view(), hash, cfg.baseSeed, kImageBoundary, fresh);
            const double secs = secondsSince(start);
            img_ok = img_ok && err.ok();
            ckpt = std::move(fresh);
            return secs;
        });
        out.imageBytes = ckpt.bytes.size();
        out.restoreSecs = min5([&] {
            TrialRigOptions restore_opts;
            restore_opts.forRestore = true;
            restore_opts.deferObservers = true;
            TrialRig target(cfg, cfg.baseSeed, restore_opts);
            const auto start = Clock::now();
            const CheckpointError err = restoreCheckpoint(
                target.view(), hash, cfg.baseSeed, ckpt);
            const double secs = secondsSince(start);
            img_ok = img_ok && err.ok();
            return secs;
        });
        std::printf("  image (%s, Big1M): %.1f MB (%.1f MB of lanes "
                    "unpacked), capture %.4f s, restore %.4f s%s\n",
                    cfg.label().c_str(), out.imageMb(), out.unpackedMb(),
                    out.captureSecs, out.restoreSecs,
                    img_ok ? "" : " (FAILED)");
        return out;
    };
    const ImageSample mglru_image = measureImage(PolicyKind::MgLru);
    const ImageSample clock_image = measureImage(PolicyKind::Clock);
    std::printf("\n");

    // --- Emit the JSON baseline. -----------------------------------
    const unsigned cores = std::thread::hardware_concurrency();
    FILE *out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"schema_version\": 1,\n");
    std::fprintf(out, "  \"host\": {\"cores\": %u, \"cpu\": \"%s\"},\n",
                 cores, hostCpuModel().c_str());
    std::fprintf(out,
                 "  \"event_queue\": {\n"
                 "    \"events\": %llu,\n"
                 "    \"samples\": %d,\n"
                 "    \"estimator\": \"median of %d runs per queue\",\n"
                 "    \"shapes\": {\n",
                 static_cast<unsigned long long>(kQueueEvents),
                 kQueueSamples, kQueueSamples);
    for (std::size_t i = 0; i < std::size(queue_shapes); ++i) {
        const QueueShape &q = queue_shapes[i];
        std::fprintf(
            out,
            "      \"outstanding_%u\": {\n"
            "        \"outstanding\": %u,\n"
            "        \"hold\": {\"legacy_heap_events_per_sec\": %.0f, "
            "\"flat_heap_events_per_sec\": %.0f, \"speedup\": %.3f},\n"
            "        \"churn\": {\"legacy_heap_events_per_sec\": %.0f, "
            "\"flat_heap_events_per_sec\": %.0f, \"speedup\": %.3f}\n"
            "      }%s\n",
            q.outstanding, q.outstanding, q.holdLegacy, q.holdHeap,
            q.holdHeap / q.holdLegacy, q.churnLegacy, q.churnHeap,
            q.churnHeap / q.churnLegacy,
            i + 1 < std::size(queue_shapes) ? "," : "");
    }
    std::fprintf(out, "    }\n  },\n");
    std::fprintf(out,
                 "  \"aging_scan\": {\n"
                 "    \"pages\": %llu,\n"
                 "    \"passes\": %d,\n"
                 "    \"patterns\": {\n",
                 static_cast<unsigned long long>(kScanPages),
                 kScanPasses);
    for (std::size_t p = 0; p < kNumPatterns; ++p) {
        std::fprintf(out,
                     "      \"%s\": {\"word_ptes_per_sec\": %.0f}%s\n",
                     kScanPatterns[p].key, scan_word_pps[p],
                     p + 1 < kNumPatterns ? "," : "");
    }
    std::fprintf(out, "    }\n  },\n");
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
                 "      \"passes\": %d,\n"
                 "      \"serial_ptes_per_sec\": %.0f\n    },\n"
                 "    \"trial\": {\n"
                 "      \"cell\": \"%s\",\n"
                 "      \"scale\": \"Big64M\",\n"
                 "      \"wall_seconds\": %.2f,\n"
                 "      \"faults_per_sec\": %.0f\n    }\n  },\n",
                 static_cast<unsigned long long>(kBigScanPages),
                 kBigScanPasses, big_scan_pps, big_cfg.label().c_str(),
                 big_trial_secs, big_faults_per_sec);
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
                 "      \"full_detail_seconds\": %.2f\n    }\n  },\n",
                 ckpt_cells.size(),
                 effectiveTrials(ckpt_cells.front().trials),
                 static_cast<unsigned long long>(ckpt_boundary),
                 ckpt_cold_secs, ckpt_warm_secs, ckpt_speedup,
                 ckpt_identical ? "true" : "false",
                 static_cast<unsigned long long>(big_boundary),
                 ff_full_secs);
    std::fprintf(out,
                 "  \"serializer\": {\n"
                 "    \"frames\": %u,\n"
                 "    \"spaces\": %zu,\n"
                 "    \"payload_mb\": %.1f,\n"
                 "    \"packed_mb\": %.1f,\n"
                 "    \"estimator\": \"min of 5\",\n"
                 "    \"per_frame_space_id_seconds\": %.4f,\n"
                 "    \"save_seconds\": %.4f,\n"
                 "    \"save_gb_per_sec\": %.3f,\n"
                 "    \"restore_seconds\": %.4f,\n"
                 "    \"restore_gb_per_sec\": %.3f,\n"
                 "    \"speedup_vs_per_frame\": %.3f,\n",
                 kSerFrames, kSerSpaces, ser_payload_mb, ser_packed_mb,
                 ser_ref_secs, ser_save_secs, ser_save_gbps,
                 ser_restore_secs, ser_restore_gbps, ser_speedup);
    const auto emitImage = [&](const char *key, const ImageSample &img,
                               bool last) {
        std::fprintf(out,
                     "    \"%s\": {\n"
                     "      \"cell\": \"%s\",\n"
                     "      \"scale\": \"Big1M\",\n"
                     "      \"boundary_refs\": %llu,\n"
                     "      \"image_mb\": %.1f,\n"
                     "      \"unpacked_mb\": %.1f,\n"
                     "      \"estimator\": \"min of 5\",\n"
                     "      \"capture_seconds\": %.4f,\n"
                     "      \"capture_gb_per_sec\": %.3f,\n"
                     "      \"restore_seconds\": %.4f,\n"
                     "      \"restore_gb_per_sec\": %.3f,\n"
                     "      \"round_trip_ok\": %s\n    }%s\n",
                     key, img.cfg.label().c_str(),
                     static_cast<unsigned long long>(kImageBoundary),
                     img.imageMb(), img.unpackedMb(), img.captureSecs,
                     img.unpackedMb() / 1e3 / img.captureSecs,
                     img.restoreSecs,
                     img.unpackedMb() / 1e3 / img.restoreSecs,
                     img_ok ? "true" : "false", last ? "" : ",");
    };
    emitImage("image", mglru_image, false);
    emitImage("clock_image", clock_image, true);
    std::fprintf(out, "  },\n");
    std::fprintf(out,
                 "  \"trial_memory\": {\n"
                 "    \"samples\": %d,\n"
                 "    \"estimator\": \"ru_maxrss of a fresh child "
                 "process per sample\",\n",
                 TrialMemory::kSamples);
    const auto emitMemory = [&](const char *key, const TrialMemory &mem,
                                bool last) {
        std::fprintf(out,
                     "    \"%s\": {\n"
                     "      \"cell\": \"%s\",\n"
                     "      \"scale\": \"Big1M\",\n"
                     "      \"peak_rss_mb\": {\"min\": %.1f, "
                     "\"median\": %.1f, \"max\": %.1f},\n"
                     "      \"peak_queue_depth\": %llu\n    }%s\n",
                     key, mem.cfg.label().c_str(), mem.rssMb[0],
                     mem.rssMb[1], mem.rssMb[2],
                     static_cast<unsigned long long>(mem.peakQueueDepth),
                     last ? "" : ",");
    };
    emitMemory("ssd", ssd_memory, false);
    emitMemory("zram", zram_memory, true);
    std::fprintf(out, "  }\n");
    std::fprintf(out, "}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());

    // Non-zero exit if the parallel sweep or a checkpoint restore ever
    // diverges from the straight-through path, an image fails to
    // capture or restore, or a trial-memory child fails — a cheap
    // determinism canary in CI.
    const bool memory_ok = ssd_memory.ok && zram_memory.ok;
    return (identical && ckpt_identical && img_ok && memory_ok)
               ? 0
               : 2;
}
