#include "workloads.hh"

#include <chrono>
#include <cstdlib>

#include "harness/sweep.hh"

namespace pagesim::e2e
{

namespace
{

/** Boundary of the ckpt-big1m cold/warm split, in workload touches. */
constexpr std::uint64_t kCheckpointAt = 1250000;

/** Index of the cell labelled @p label (which must exist). */
std::size_t
cellIndex(const BenchWorkload &w, const std::string &label)
{
    for (std::size_t i = 0; i < w.cells.size(); ++i)
        if (w.cells[i].label == label)
            return i;
    std::abort();
}

ExperimentConfig
singleCell(WorkloadKind workload, PolicyKind policy, SwapKind swap,
           double capacity, ScalePreset scale)
{
    ExperimentConfig config;
    config.workload = workload;
    config.policy = policy;
    config.swap = swap;
    config.capacityRatio = capacity;
    config.scale = scale;
    return config;
}

/** The work fig01-fig12 regenerate: the paper grid plus the variants. */
BenchWorkload
paperGrid()
{
    BenchWorkload w;
    w.name = "paper-grid";
    w.pinnedRounds = 16;
    for (WorkloadKind kind : allWorkloadKinds()) {
        w.datasets.emplace_back(kind, ScalePreset::Default);
        for (PolicyKind policy : {PolicyKind::Clock, PolicyKind::MgLru})
            for (SwapKind swap : {SwapKind::Ssd, SwapKind::Zram})
                for (double capacity : {0.5, 0.75, 0.9}) {
                    ExperimentConfig c = singleCell(
                        kind, policy, swap, capacity,
                        ScalePreset::Default);
                    w.cells.push_back({c.label(), c});
                }
        for (PolicyKind variant : mgLruVariantKinds()) {
            ExperimentConfig c = singleCell(kind, variant, SwapKind::Ssd,
                                            0.5, ScalePreset::Default);
            w.cells.push_back({c.label(), c});
        }
    }
    w.probeCell = cellIndex(w, "YCSB-A/MG-LRU/SSD/50%");
    return w;
}

/** Page-table-dominated trials on the 1M-page machine. */
BenchWorkload
big1m()
{
    BenchWorkload w;
    w.name = "big1m";
    w.pinnedRounds = 64;
    for (WorkloadKind kind : {WorkloadKind::YcsbA, WorkloadKind::YcsbC}) {
        w.datasets.emplace_back(kind, ScalePreset::Big1M);
        for (PolicyKind policy : {PolicyKind::Clock, PolicyKind::MgLru})
            for (SwapKind swap : {SwapKind::Ssd, SwapKind::Zram}) {
                ExperimentConfig c = singleCell(kind, policy, swap, 0.5,
                                                ScalePreset::Big1M);
                w.cells.push_back({c.label(), c});
            }
    }
    w.probeCell = cellIndex(w, "YCSB-A/MG-LRU/SSD/50%");
    return w;
}

/** Checkpoint capture and restore of a whole 1M-page machine. */
BenchWorkload
ckptBig1m()
{
    BenchWorkload w;
    w.name = "ckpt-big1m";
    w.coldWarm = true;
    w.pinnedRounds = 24;
    const WorkloadKind kinds[] = {WorkloadKind::YcsbA, WorkloadKind::YcsbC};
    for (WorkloadKind kind : kinds)
        w.datasets.emplace_back(kind, ScalePreset::Big1M);
    // Rounds are separated by a join (the cache is cleared between
    // them), so the longer 50% cells go first: the round's last tasks
    // are short ones, and threads idle less at the join.
    for (double capacity : {0.5, 0.6})
        for (WorkloadKind kind : kinds)
            for (PolicyKind policy : {PolicyKind::Clock, PolicyKind::MgLru}) {
                ExperimentConfig c =
                    singleCell(kind, policy, SwapKind::Ssd, capacity,
                               ScalePreset::Big1M);
                c.checkpointAt = kCheckpointAt;
                w.cells.push_back({c.label() + "/ckpt", c});
            }
    w.probeCell = cellIndex(w, "YCSB-A/MG-LRU/SSD/50%/ckpt");
    return w;
}

/** Three tenants on one machine: the multi-memcg reclaim fan-out. */
BenchWorkload
colocation()
{
    BenchWorkload w;
    w.name = "colocation";
    w.pinnedRounds = 80;
    const WorkloadKind kinds[] = {WorkloadKind::YcsbA, WorkloadKind::Tpch,
                                  WorkloadKind::PageRank};
    for (WorkloadKind kind : kinds)
        w.datasets.emplace_back(kind, ScalePreset::Default);

    struct Mode
    {
        const char *name;
        double ycsbLow;
        double tpchMax;
    };
    const Mode modes[] = {
        {"baseline", 0.0, 0.0},
        {"ycsb-low60", 0.6, 0.0},
        {"tpch-max45", 0.0, 0.45},
    };
    for (const Mode &mode : modes)
        for (double capacity : {0.5, 0.75}) {
            ColocationConfig c;
            c.policy = PolicyKind::MgLru;
            c.swap = SwapKind::Ssd;
            c.capacityRatio = capacity;
            c.metrics.mode = MetricsMode::Full;
            for (const char *name : {"ycsb", "tpch", "pagerank"}) {
                TenantSpec t;
                t.name = name;
                t.workload = kinds[c.tenants.size()];
                t.scale = ScalePreset::Default;
                c.tenants.push_back(t);
            }
            c.tenants[0].lowRatio = mode.ycsbLow;
            c.tenants[1].maxRatio = mode.tpchMax;
            w.cells.push_back({std::string(mode.name) + " " + c.label(), c});
        }
    return w;
}

void
fnvAdd(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
}

} // namespace

const std::vector<BenchWorkload> &
benchWorkloads()
{
    static const std::vector<BenchWorkload> workloads = {
        paperGrid(), big1m(), ckptBig1m(), colocation()};
    return workloads;
}

const BenchWorkload *
findWorkload(const std::string &name)
{
    for (const BenchWorkload &w : benchWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

std::uint64_t
roundSeed(std::uint64_t seed, unsigned round)
{
    ExperimentConfig probe;
    probe.baseSeed = seed;
    return trialSeed(probe, round);
}

CallResult
runCall(const Cell &cell, std::uint64_t trial_seed)
{
    CallResult out;
    const auto start = std::chrono::steady_clock::now();
    if (const auto *single = std::get_if<ExperimentConfig>(&cell.config)) {
        const TrialResult r = runTrial(*single, trial_seed);
        out.fingerprint = trialFingerprint(r);
        out.touches = r.totalTouches;
    } else {
        const ColocationTrialResult r = runColocationTrial(
            std::get<ColocationConfig>(cell.config), trial_seed);
        out.fingerprint = colocationFingerprint(r.tenants);
        out.touches = r.totalTouches;
    }
    out.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    return out;
}

std::uint64_t
trialFingerprint(const TrialResult &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto add = [&h](std::uint64_t v) { fnvAdd(h, v); };
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

std::uint64_t
colocationFingerprint(const std::vector<TenantResult> &tenants)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const TenantResult &t : tenants)
        fnvAdd(h, tenantFingerprint(t));
    return h;
}

} // namespace pagesim::e2e
