/**
 * @file
 * The traced run: per-layer metrics from outside the simulator.
 *
 * Trial 0 of every cell runs serially, reassembled from the public
 * rig API so spans can sit around each layer's entry point:
 * harness.make_workload (set-up), harness.rig_build (TrialRig /
 * ColocationRig construction), sim.run_to_boundary and sim.run
 * (the event loop), harness.ckpt_capture / harness.ckpt_restore.
 * The reassembly mirrors runTrial / runColocationTrial step for step,
 * so each traced trial must reproduce its pinned fingerprint. After
 * each cell the same call(s) run untraced, for the tracing overhead.
 *
 * Host time inside sim.run is split between layers by unit costs
 * measured on standalone components (event queue hold model, aging
 * scan, swap devices, a reclaim burst on a machine restored at the
 * trial midpoint) times the counts the trials report; these "est"
 * shares are estimates. Op generation is measured by replaying every
 * thread's op stream. Whatever no share covers (fault path, actors,
 * CPU model) is unattributed_share.
 */

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>

#include "harness/checkpoint.hh"
#include "harness/trial_rig.hh"
#include "kv/ycsb_workload.hh"
#include "mem/address_space.hh"
#include "mem/frame_table.hh"
#include "metrics/export.hh"
#include "modes.hh"
#include "policy/mglru/mglru_policy.hh"
#include "sim/event_queue.hh"
#include "swap/ssd_device.hh"
#include "swap/zram_device.hh"

namespace pagesim::e2e
{

namespace
{

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kMaxEvents = 2000000000ull;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Keeps a probe's result observable so the work is not elided. */
void
keepAlive(const void *p)
{
    asm volatile("" : : "g"(p) : "memory");
}

/** Spans kept in memory and written as Chrome-trace JSON at the end. */
class Spans
{
  public:
    /** One open span; closes at close() or scope exit. */
    class Scope
    {
      public:
        Scope(Spans &spans, const std::string &name,
              const std::string &trial)
            : spans_(spans), index_(spans.spans_.size())
        {
            const long parent =
                spans.open_.empty() ? -1 : static_cast<long>(spans.open_.back());
            spans.spans_.push_back(
                {name, trial, Clock::now(), Clock::time_point{}, parent});
            spans.open_.push_back(index_);
        }

        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        ~Scope() { close(); }

        /** End the span (first call only); returns its seconds. */
        double
        close()
        {
            Span &s = spans_.spans_[index_];
            if (open_) {
                open_ = false;
                s.end = Clock::now();
                spans_.open_.pop_back();
            }
            return std::chrono::duration<double>(s.end - s.start).count();
        }

      private:
        Spans &spans_;
        std::size_t index_;
        bool open_ = true;
    };

    /** Write every span as a Perfetto-loadable Chrome trace. */
    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
        const auto us = [this](Clock::time_point t) {
            return std::chrono::duration<double, std::micro>(t - origin_)
                .count();
        };
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char times[96];
            std::snprintf(times, sizeof times,
                          "\"ts\": %.3f, \"dur\": %.3f", us(s.start),
                          us(s.end) - us(s.start));
            out << (i ? ",\n" : "\n") << "{\"name\": \""
                << jsonEscape(s.name)
                << "\", \"cat\": \"pagesim_bench\", \"ph\": \"X\", "
                << times << ", \"pid\": 1, \"tid\": 1, \"args\": {"
                << "\"span_id\": " << i << ", \"parent_id\": " << s.parent
                << ", \"trial\": \"" << jsonEscape(s.trial) << "\"}}";
        }
        out << "\n]}\n";
        out.close();
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        std::string trial;
        Clock::time_point start;
        Clock::time_point end;
        long parent;
    };

    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** Everything the traced trials add up. */
struct Totals
{
    std::vector<double> rigBuildMs;
    /** Event-loop milliseconds per traced call. */
    std::vector<double> simRunMs;
    double simRunS = 0.0;
    double tracedS = 0.0;
    double plainS = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t events = 0;
    std::uint64_t refs = 0;
    std::uint64_t ops = 0;
    double opgenS = 0.0;

    FaultStats kernel;
    std::uint64_t protectedSkips = 0;
    std::uint64_t throttleEvents = 0;
    PolicyStats policy;
    std::uint64_t swapReads = 0;
    std::uint64_t swapWrites = 0;
    std::uint64_t ssdOps = 0;
    std::uint64_t zramOps = 0;

    /** Checkpoints the trials captured (ckpt-big1m only). */
    std::uint64_t trialCkptBytes = 0;
    std::uint64_t trialCkpts = 0;
    /** Every capture and restore, the reclaim probe's included. */
    std::uint64_t capturedBytes = 0;
    std::uint64_t captures = 0;
    double captureS = 0.0;
    std::uint64_t restoredBytes = 0;
    std::uint64_t restores = 0;
    double restoreS = 0.0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
};

/** Add one finished machine's counters to @p t. */
void
account(Totals &t, Simulation &sim, MemoryManager &mm,
        const std::vector<ReplacementPolicy *> &policies,
        const SwapDevice &device, SwapKind swap, std::uint64_t refs)
{
    t.events += sim.events().dispatched();
    t.refs += refs;
    const FaultStats &k = mm.stats();
    t.kernel.majorFaults += k.majorFaults;
    t.kernel.minorFaults += k.minorFaults;
    t.kernel.evictions += k.evictions;
    t.kernel.directReclaims += k.directReclaims;
    t.kernel.readaheadReads += k.readaheadReads;
    t.kernel.readaheadHits += k.readaheadHits;
    for (std::size_t i = 0; i < mm.memcgCount(); ++i) {
        const MemcgStats &m = mm.memcg(static_cast<MemcgId>(i)).stats();
        t.protectedSkips += m.protectedSkips;
        t.throttleEvents += m.throttleEvents;
    }
    for (const ReplacementPolicy *p : policies) {
        t.policy.ptesScanned += p->stats().ptesScanned;
        t.policy.rmapWalks += p->stats().rmapWalks;
        t.policy.regionsVisited += p->stats().regionsVisited;
        t.policy.regionsSkipped += p->stats().regionsSkipped;
    }
    const SwapDeviceStats &s = device.stats();
    t.swapReads += s.reads;
    t.swapWrites += s.writes;
    (swap == SwapKind::Ssd ? t.ssdOps : t.zramOps) += s.reads + s.writes;
}

/** Drain a fresh op stream of every thread of @p w; counts the ops. */
void
replayOps(Workload &w, Totals &t)
{
    const auto start = Clock::now();
    Op op;
    for (unsigned tid = 0; tid < w.numThreads(); ++tid) {
        auto stream = w.stream(tid);
        while (stream->next(op))
            ++t.ops;
    }
    t.opgenS += secondsSince(start);
}

/** Stop and snapshot the metrics collector, as the harness does. */
template <typename Rig>
void
snapshotMetrics(Rig &rig)
{
    if (rig.collector) {
        rig.collector->sampler().stop();
        const MetricsSnapshot snap = rig.collector->snapshot(rig.sim.now());
        keepAlive(&snap);
    }
}

/** runTrial's result collection, for the fingerprinted fields. */
TrialResult
collectTrial(TrialRig &rig)
{
    TrialResult r;
    MemoryManager &mm = *rig.mm;
    r.kernel = mm.stats();
    r.policy = rig.policy->stats();
    r.swap = rig.device->stats();
    if (auto *mg = dynamic_cast<MgLruPolicy *>(rig.policy.get()))
        r.mglru = mg->mgStats();
    r.kswapdCpuNs = rig.kswapd->cpuWork();
    if (rig.aging) {
        r.agingCpuNs = rig.aging->cpuWork();
        r.agingPasses = rig.aging->passes();
    }
    for (const auto &t : rig.threads) {
        r.threadFinishNs.push_back(t->threadStats().finishTime);
        r.threadBlockedFaults.push_back(t->threadStats().blockedFaults);
    }
    r.totalTouches = rig.totalRefs();
    if (auto *ycsb = dynamic_cast<YcsbWorkload *>(rig.workload.get())) {
        r.runtimeNs = rig.sim.now() - ycsb->measureStart();
        r.majorFaults = mm.stats().majorFaults - ycsb->faultsAtMeasureStart();
    } else {
        r.runtimeNs = rig.sim.now();
        r.majorFaults = mm.stats().majorFaults;
    }
    snapshotMetrics(rig);
    return r;
}

/** runColocationTrial's per-tenant collection (fingerprinted fields). */
std::vector<TenantResult>
collectTenants(ColocationRig &rig)
{
    std::vector<TenantResult> out;
    for (std::size_t i = 0; i < rig.tenants.size(); ++i) {
        TenantResult tr;
        tr.name = rig.config.tenants[i].name;
        tr.memcgStats = rig.mm->memcg(static_cast<MemcgId>(i)).stats();
        tr.policy = rig.tenants[i].policy->stats();
        for (const auto &th : rig.threads[i]) {
            tr.threadFinishNs.push_back(th->threadStats().finishTime);
            tr.threadBlockedFaults.push_back(th->threadStats().blockedFaults);
            tr.finishNs = std::max(tr.finishNs, th->threadStats().finishTime);
        }
        out.push_back(std::move(tr));
    }
    snapshotMetrics(rig);
    return out;
}

/** Run @p rig's event loop to completion inside a sim.run span. */
template <typename Rig>
bool
runLoop(Rig &rig, Spans &spans, const std::string &id, Totals &t,
        double &loop_s)
{
    Spans::Scope run(spans, "sim.run", id);
    const bool done = rig.sim.runToCompletion(kMaxEvents);
    const double secs = run.close();
    loop_s += secs;
    t.simRunS += secs;
    return done;
}

/**
 * One traced single-tenant call, mirroring runTrial: with
 * checkpointAt set, restore a cached snapshot when there is one, else
 * simulate to the boundary and capture one.
 */
CallResult
tracedTrial(const ExperimentConfig &config, std::uint64_t seed,
            const std::string &id, Spans &spans, Totals &t)
{
    Spans::Scope trial(spans, "trial", id);
    double loop_s = 0.0;
    std::unique_ptr<TrialRig> rig;
    const auto build = [&](const TrialRigOptions &opts) {
        Spans::Scope s(spans, "harness.rig_build", id);
        rig = std::make_unique<TrialRig>(config, seed, opts);
        t.rigBuildMs.push_back(s.close() * 1e3);
    };

    if (config.checkpointAt == 0) {
        build(TrialRigOptions{});
    } else {
        const std::uint64_t hash = configPrefixHash(config);
        const std::uint64_t boundary = config.checkpointAt;
        CheckpointCache &cache = CheckpointCache::instance();
        if (auto ckpt = cache.find(hash, seed, boundary)) {
            TrialRigOptions opts;
            opts.forRestore = true;
            opts.deferObservers = true;
            build(opts);
            Spans::Scope s(spans, "harness.ckpt_restore", id);
            const CheckpointError err =
                restoreCheckpoint(rig->view(), hash, seed, *ckpt);
            t.restoreS += s.close();
            t.restoredBytes += ckpt->bytes.size();
            ++t.restores;
            if (!err.ok())
                return {};
        } else {
            TrialRigOptions opts;
            opts.deferObservers = true;
            build(opts);
            std::uint64_t used = 0;
            Spans::Scope prefix(spans, "sim.run_to_boundary", id);
            const bool reached = rig->runToBoundary(boundary, kMaxEvents, used);
            const double prefix_s = prefix.close();
            loop_s += prefix_s;
            t.simRunS += prefix_s;
            if (!reached)
                return {};
            auto captured = std::make_shared<Checkpoint>();
            Spans::Scope s(spans, "harness.ckpt_capture", id);
            const CheckpointError err = captureCheckpoint(
                rig->view(), hash, seed, boundary, *captured);
            t.captureS += s.close();
            if (!err.ok())
                return {};
            t.capturedBytes += captured->bytes.size();
            ++t.captures;
            t.trialCkptBytes += captured->bytes.size();
            ++t.trialCkpts;
            cache.insert(std::move(captured));
        }
        rig->installObservers();
    }

    if (!runLoop(*rig, spans, id, t, loop_s))
        return {};
    const TrialResult r = collectTrial(*rig);
    t.tracedS += trial.close();
    t.simRunMs.push_back(loop_s * 1e3);
    ++t.calls;
    account(t, rig->sim, *rig->mm, {rig->policy.get()}, *rig->device,
            config.swap, r.totalTouches);
    {
        Spans::Scope s(spans, "workload.opgen_replay", id);
        replayOps(*rig->workload, t);
    }
    return {trialFingerprint(r), r.totalTouches, 0.0};
}

/** One traced colocation call, mirroring runColocationTrial. */
CallResult
tracedColocation(const ColocationConfig &config, std::uint64_t seed,
                 const std::string &id, Spans &spans, Totals &t)
{
    Spans::Scope trial(spans, "trial", id);
    double loop_s = 0.0;
    std::unique_ptr<ColocationRig> rig;
    {
        Spans::Scope s(spans, "harness.rig_build", id);
        rig = std::make_unique<ColocationRig>(config, seed,
                                              TrialRigOptions{});
        t.rigBuildMs.push_back(s.close() * 1e3);
    }
    if (!runLoop(*rig, spans, id, t, loop_s))
        return {};
    const std::vector<TenantResult> tenants = collectTenants(*rig);
    t.tracedS += trial.close();
    t.simRunMs.push_back(loop_s * 1e3);
    ++t.calls;
    std::vector<ReplacementPolicy *> policies;
    for (auto &tenant : rig->tenants)
        policies.push_back(tenant.policy.get());
    const std::uint64_t refs = rig->totalRefs();
    account(t, rig->sim, *rig->mm, policies, *rig->device, config.swap,
            refs);
    {
        Spans::Scope s(spans, "workload.opgen_replay", id);
        for (auto &tenant : rig->tenants)
            replayOps(*tenant.workload, t);
    }
    return {colocationFingerprint(tenants), refs, 0.0};
}

CallResult
tracedCall(const Cell &cell, std::uint64_t seed, const std::string &id,
           Spans &spans, Totals &t)
{
    if (const auto *single = std::get_if<ExperimentConfig>(&cell.config))
        return tracedTrial(*single, seed, id, spans, t);
    return tracedColocation(std::get<ColocationConfig>(cell.config), seed,
                            id, spans, t);
}

// --- Unit-cost probes. ---------------------------------------------

/** Host ns per event: Brown's hold model on a standalone queue. */
double
probeEventNs()
{
    constexpr unsigned kOutstanding = 256;
    constexpr std::uint64_t kEvents = 2000000;
    // Mostly CPU-chunk-scale delays, some device-scale, a few
    // daemon-sleep-scale ones (the queue's overflow path).
    std::vector<SimDuration> deltas(4096);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    for (SimDuration &d : deltas) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const unsigned bucket = x % 100;
        d = bucket < 85   ? 1000 + x % 64000
            : bucket < 95 ? x % 1000000
                          : 50000000 + x % 150000000;
    }
    double best = std::numeric_limits<double>::infinity();
    std::uint64_t fired = 0;
    const auto tick = [&fired] { ++fired; };
    for (int rep = 0; rep < 3; ++rep) {
        EventQueue q;
        std::uint64_t idx = 0;
        for (unsigned i = 0; i < kOutstanding; ++i)
            q.scheduleAfter(deltas[idx++ % deltas.size()], tick);
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < kEvents; ++i) {
            q.runOne();
            q.scheduleAfter(deltas[idx++ % deltas.size()], tick);
        }
        best = std::min(best, secondsSince(start) * 1e9 / kEvents);
    }
    keepAlive(&fired);
    return best;
}

/** Host ns per PTE of MG-LRU's aging walk over a resident VMA. */
double
probeScanNsPerPte()
{
    constexpr std::uint64_t kPages = 1ull << 16;
    FrameTable frames(static_cast<std::uint32_t>(kPages + 1));
    AddressSpace space(0);
    const Vpn base = space.map("scan-probe", kPages);
    MmCosts costs;
    MgLruConfig cfg;
    cfg.scanMode = ScanMode::All;
    cfg.agingLowPages = 0;
    cfg.agingEvictGate = 0;
    MgLruPolicy policy(frames, {&space}, costs, Rng(1), cfg);
    PageTable &table = space.table();
    for (Vpn v = base; v < base + kPages; ++v) {
        const Pfn pfn = frames.allocate(&space, v, false);
        table.mapFrame(v, pfn);
        policy.onPageResident(pfn, ResidencyKind::NewAnon, 0);
    }
    const auto rearm = [&] {
        for (Vpn v = base; v < base + kPages; ++v)
            table.setAccessed(v);
    };
    CostSink sink;
    rearm();
    policy.age(sink); // warm pass
    double best = std::numeric_limits<double>::infinity();
    for (int pass = 0; pass < 16; ++pass) {
        rearm();
        const std::uint64_t before = policy.stats().ptesScanned;
        const auto start = Clock::now();
        policy.age(sink);
        const double secs = secondsSince(start);
        const std::uint64_t ptes = policy.stats().ptesScanned - before;
        if (ptes > 0)
            best = std::min(best, secs * 1e9 / static_cast<double>(ptes));
    }
    return std::isfinite(best) ? best : 0.0;
}

constexpr unsigned kSwapProbeOps = 200000;

/** Host ns per SSD op: submit a batch, drain the completions. */
double
probeSsdNsPerOp()
{
    EventQueue events;
    SsdSwapDevice ssd(events, Rng(7));
    std::uint64_t done = 0;
    constexpr unsigned kBatch = 32;
    const auto start = Clock::now();
    for (unsigned i = 0; i < kSwapProbeOps; i += kBatch) {
        for (unsigned j = 0; j < kBatch; ++j)
            ssd.submit(static_cast<SwapSlot>((i + j) % 65536),
                       ((i + j) & 1) != 0, [&done] { ++done; });
        events.run();
    }
    const double secs = secondsSince(start);
    keepAlive(&done);
    return secs * 1e9 / kSwapProbeOps;
}

/** Host ns per ZRAM op: the synchronous cost query plus bookkeeping. */
double
probeZramNsPerOp()
{
    ZramSwapDevice zram;
    SimDuration cost = 0;
    const auto start = Clock::now();
    for (unsigned i = 0; i < kSwapProbeOps; ++i) {
        const auto slot = static_cast<SwapSlot>(i % 65536);
        const bool write = (i & 1) != 0;
        cost += zram.cpuCost(slot, write);
        zram.noteSyncOp(slot, write);
    }
    const double secs = secondsSince(start);
    keepAlive(&cost);
    return secs * 1e9 / kSwapProbeOps;
}

std::uint64_t
prefixHash(const ExperimentConfig &c)
{
    return configPrefixHash(c);
}

std::uint64_t
prefixHash(const ColocationConfig &c)
{
    return colocationPrefixHash(c);
}

/**
 * Host ns per reclaimed page: 64 direct reclaim batches on a machine
 * restored at @p midpoint references (best of 3 restores). The
 * capture and the restores are spans, and count towards the
 * checkpoint GB/s on every workload.
 */
template <typename Rig, typename Config>
double
probeReclaimNsPerPage(const Config &config, std::uint64_t seed,
                      std::uint64_t midpoint, Spans &spans, Totals &t)
{
    const std::uint64_t hash = prefixHash(config);
    Checkpoint ckpt;
    {
        TrialRigOptions opts;
        opts.deferObservers = true;
        Rig rig(config, seed, opts);
        std::uint64_t used = 0;
        if (!rig.runToBoundary(midpoint, kMaxEvents, used))
            return 0.0;
        Spans::Scope s(spans, "harness.ckpt_capture", "probe");
        if (!captureCheckpoint(rig.view(), hash, seed, midpoint, ckpt).ok())
            return 0.0;
        t.captureS += s.close();
        t.capturedBytes += ckpt.bytes.size();
        ++t.captures;
    }
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
        TrialRigOptions opts;
        opts.forRestore = true;
        opts.deferObservers = true;
        Rig rig(config, seed, opts);
        Spans::Scope s(spans, "harness.ckpt_restore", "probe");
        if (!restoreCheckpoint(rig.view(), hash, seed, ckpt).ok())
            return 0.0;
        t.restoreS += s.close();
        t.restoredBytes += ckpt.bytes.size();
        ++t.restores;
        CostSink sink;
        std::uint64_t pages = 0;
        const auto start = Clock::now();
        for (int batch = 0; batch < 64; ++batch)
            pages += rig.mm->reclaimBatch(sink, true);
        const double secs = secondsSince(start);
        if (pages > 0)
            best = std::min(best, secs * 1e9 / static_cast<double>(pages));
    }
    return std::isfinite(best) ? best : 0.0;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

void
runOnce(const ExperimentConfig &config, std::uint64_t seed)
{
    runTrial(config, seed);
}

void
runOnce(const ColocationConfig &config, std::uint64_t seed)
{
    runColocationTrial(config, seed);
}

/**
 * Metrics-layer overhead on one trial of @p config: Full vs Off,
 * process CPU time, minimum of 5 interleaved pairs.
 */
template <typename Config>
double
probeMetricsOverheadPct(Config full, std::uint64_t seed)
{
    full.metrics.mode = MetricsMode::Full;
    Config off = full;
    off.metrics.mode = MetricsMode::Off;
    double full_s = std::numeric_limits<double>::infinity();
    double off_s = full_s;
    for (int rep = 0; rep < 5; ++rep) {
        for (Config *c : {&full, &off}) {
            const double start = processCpuSeconds();
            runOnce(*c, seed);
            double &best = c == &off ? off_s : full_s;
            best = std::min(best, processCpuSeconds() - start);
        }
    }
    return (full_s / off_s - 1.0) * 100.0;
}

} // namespace

int
runTraced(const BenchWorkload &w, std::uint64_t seed,
          const std::string &json_path)
{
    Spans spans;
    Manifest manifest;
    Pinned pins;
    std::string error;
    if (!loadInputs(w, manifest, pins, error)) {
        std::fprintf(stderr, "pagesim_bench: error: %s\n", error.c_str());
        return kExitError;
    }
    double make_workload_s = 0.0;
    for (const auto &[kind, scale] : w.datasets) {
        Spans::Scope s(spans, "harness.make_workload",
                       workloadKindName(kind));
        makeWorkload(kind, scale);
        make_workload_s += s.close();
    }

    std::printf("pagesim_bench: %s traced, seed %" PRIu64
                ", round 0 of %zu cells, serial\n",
                w.name.c_str(), seed, w.cells.size());
    const std::uint64_t trial_seed = roundSeed(seed, 0);
    Totals t;
    RunSummary summary;
    std::uint64_t probe_touches = 0;
    CheckpointCache &cache = CheckpointCache::instance();
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
        const Cell &cell = w.cells[c];
        const std::string id =
            cell.label + " seed " + std::to_string(trial_seed);
        cache.clear();
        const CallResult first =
            tracedCall(cell, trial_seed, id + (w.coldWarm ? " cold" : ""),
                       spans, t);
        summary.failed +=
            !checkCall(w, pins, cell, seed, 0, first, nullptr);
        ++summary.attempted;
        if (w.coldWarm) {
            const CallResult warm =
                tracedCall(cell, trial_seed, id + " warm", spans, t);
            summary.failed +=
                !checkCall(w, pins, cell, seed, 0, warm, &first);
            ++summary.attempted;
        }
        t.cacheHits += cache.hits();
        t.cacheMisses += cache.misses();
        if (c == w.probeCell)
            probe_touches = first.touches;

        // The same call(s) untraced, for the tracing overhead.
        cache.clear();
        for (int i = 0; i < (w.coldWarm ? 2 : 1); ++i)
            t.plainS += runCall(cell, trial_seed).wallMs * 1e-3;
    }
    cache.clear();

    const Cell &probe_cell = w.cells[w.probeCell];
    const auto probe = [&spans](const char *name, auto fn) {
        Spans::Scope s(spans, name, "probe");
        return fn();
    };
    const double event_ns = probe("probe.event_queue", probeEventNs);
    const double scan_ns = probe("probe.aging_scan", probeScanNsPerPte);
    const double ssd_ns = probe("probe.ssd", probeSsdNsPerOp);
    const double zram_ns = probe("probe.zram", probeZramNsPerOp);
    const double reclaim_ns = probe("probe.reclaim", [&] {
        if (const auto *single =
                std::get_if<ExperimentConfig>(&probe_cell.config))
            return probeReclaimNsPerPage<TrialRig>(
                *single, trial_seed, probe_touches / 2, spans, t);
        return probeReclaimNsPerPage<ColocationRig>(
            std::get<ColocationConfig>(probe_cell.config), trial_seed,
            probe_touches / 2, spans, t);
    });
    // The timed run attaches the metrics layer on colocation only; the
    // probe measures what attaching it would cost on each workload.
    const double metrics_pct = probe("probe.metrics_overhead", [&] {
        if (const auto *single =
                std::get_if<ExperimentConfig>(&probe_cell.config)) {
            ExperimentConfig c = *single;
            c.checkpointAt = 0; // every call must simulate in full
            return probeMetricsOverheadPct(c, trial_seed);
        }
        return probeMetricsOverheadPct(
            std::get<ColocationConfig>(probe_cell.config), trial_seed);
    });

    const std::filesystem::path trace_path =
        std::filesystem::path("pagesim_bench_traces") /
        (w.name + "-seed" + std::to_string(seed) + ".trace.json");
    std::filesystem::create_directories(trace_path.parent_path());
    if (!spans.write(trace_path.string())) {
        std::fprintf(stderr, "pagesim_bench: error: cannot write %s\n",
                     trace_path.c_str());
        return kExitError;
    }
    std::printf("pagesim_bench: trace written to %s\n", trace_path.c_str());

    const double run_ns = t.simRunS * 1e9;
    const auto share = [run_ns](double ns) {
        return run_ns > 0.0 ? ns / run_ns : 0.0;
    };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    const double queue_share = share(event_ns * count(t.events));
    const double opgen_share = share(t.opgenS * 1e9);
    const double reclaim_share = share(reclaim_ns * count(t.kernel.evictions));
    const double scan_share = share(scan_ns * count(t.policy.ptesScanned));
    const double swap_share = share(ssd_ns * count(t.ssdOps) +
                                    zram_ns * count(t.zramOps));
    const std::uint64_t n = t.calls;
    const std::uint64_t cells = w.cells.size();

    Measurements m;
    m["harness.make_workload_s"] = {make_workload_s, w.datasets.size()};
    m["harness.rig_build_ms"] = {quantile(t.rigBuildMs, 0.5), n};
    m["sim.run_ms"] = {quantile(t.simRunMs, 0.5), n};
    m["sim.events"] = {count(t.events), n};
    m["sim.event_ns"] = {event_ns, 3};
    m["sim.queue_share"] = {queue_share, n};
    m["workload.refs"] = {count(t.refs), n};
    m["workload.ops"] = {count(t.ops), n};
    m["workload.opgen_ns_per_op"] = {ratio(t.opgenS * 1e9, count(t.ops)), n};
    m["workload.opgen_share"] = {opgen_share, n};
    m["kernel.major_faults"] = {count(t.kernel.majorFaults), n};
    m["kernel.minor_faults"] = {count(t.kernel.minorFaults), n};
    m["kernel.evictions"] = {count(t.kernel.evictions), n};
    m["kernel.direct_reclaims"] = {count(t.kernel.directReclaims), n};
    m["kernel.readahead_hit_ratio"] = {
        ratio(count(t.kernel.readaheadHits), count(t.kernel.readaheadReads)),
        n};
    m["kernel.reclaim_ns_per_page"] = {reclaim_ns, 3};
    m["kernel.reclaim_share"] = {reclaim_share, n};
    m["kernel.protected_skips"] = {count(t.protectedSkips), n};
    m["kernel.throttle_events"] = {count(t.throttleEvents), n};
    m["policy.ptes_scanned"] = {count(t.policy.ptesScanned), n};
    m["policy.rmap_walks"] = {count(t.policy.rmapWalks), n};
    m["policy.region_skip_ratio"] = {
        ratio(count(t.policy.regionsSkipped),
              count(t.policy.regionsVisited + t.policy.regionsSkipped)),
        n};
    m["policy.scan_ns_per_pte"] = {scan_ns, 16};
    m["policy.scan_share"] = {scan_share, n};
    m["swap.reads"] = {count(t.swapReads), n};
    m["swap.writes"] = {count(t.swapWrites), n};
    m["swap.ssd_ns_per_op"] = {ssd_ns, kSwapProbeOps};
    m["swap.zram_ns_per_op"] = {zram_ns, kSwapProbeOps};
    m["swap.share"] = {swap_share, n};
    m["harness.ckpt_bytes"] = {
        ratio(count(t.trialCkptBytes), count(t.trialCkpts)), t.trialCkpts};
    m["harness.ckpt_capture_gb_per_s"] = {
        ratio(count(t.capturedBytes), t.captureS) * 1e-9, t.captures};
    m["harness.ckpt_restore_gb_per_s"] = {
        ratio(count(t.restoredBytes), t.restoreS) * 1e-9, t.restores};
    m["harness.ckpt_hit_ratio"] = {
        ratio(count(t.cacheHits), count(t.cacheHits + t.cacheMisses)),
        t.cacheHits + t.cacheMisses};
    m["metrics.overhead_pct"] = {metrics_pct, 5};
    m["trace.overhead_pct"] = {(ratio(t.tracedS, t.plainS) - 1.0) * 100.0,
                               cells};
    m["unattributed_share"] = {1.0 - queue_share - opgen_share -
                                   reclaim_share - scan_share - swap_share,
                               n};

    summary.correct = summary.failed == 0 && t.calls == summary.attempted;
    std::printf("pagesim_bench: est: every *_share but "
                "workload.opgen_share is a probe's unit cost x the trials' "
                "count / sim.run time\n");
    if (!report(manifest.perLayer, w.name, m, summary, json_path))
        return kExitError;
    return summary.correct ? 0 : 1;
}

} // namespace pagesim::e2e
