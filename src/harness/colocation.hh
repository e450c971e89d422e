/**
 * @file
 * Colocation scenarios: N workloads sharing one machine, one memcg
 * each.
 *
 * The paper characterizes MG-LRU vs Clock one workload at a time; the
 * place the policies diverge hardest in production is multi-tenant
 * reclaim. A ColocationConfig describes one shared simulated machine:
 * every tenant gets its own AddressSpace, its own policy instance
 * (lruvec), and its own memcg with cgroup-v2-style watermarks sized as
 * fractions of that tenant's footprint. Global reclaim fans out
 * proportionally across the tenants (see MemoryManager::reclaimBatch),
 * so noisy-neighbor pressure, memory.low protection, and memory.max
 * limit-reclaim are all observable per tenant.
 *
 * A single-workload trial is the one-tenant case of the same machine
 * (trial_rig.hh): one build, trial path, runner and cache serve both.
 *
 * Determinism: trials are bit-identical across host worker counts.
 * Per-tenant RNG streams fork off the trial seed by tenant NAME
 * ("policy-<name>", ASLR by tenant index), so adding a tenant never
 * perturbs another tenant's streams, and the per-tenant results of a
 * given (config, seed) pair are stable regardless of scheduling
 * (tests/harness/colocation_test.cpp pins them). Names must therefore
 * be unique, and empty only for a lone tenant, which then forks the
 * single-workload streams; other lists, and an empty one, are refused
 * with std::invalid_argument.
 */

#ifndef PAGESIM_HARNESS_COLOCATION_HH
#define PAGESIM_HARNESS_COLOCATION_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "kernel/memcg.hh"

namespace pagesim
{

class Sink;

/** One tenant: a workload in its own memcg. */
struct TenantSpec
{
    /** Unique; names the memcg, its probes and its RNG streams. */
    std::string name;
    WorkloadKind workload = WorkloadKind::YcsbA;
    ScalePreset scale = ScalePreset::Small;
    /**
     * Per-tenant policy override; defaults to the scenario-wide
     * ColocationConfig::policy. Mixing kinds (a Clock tenant beside an
     * MG-LRU tenant) is the per-tenant study the paper could not run.
     */
    std::optional<PolicyKind> policy;
    /**
     * Watermarks as fractions of THIS tenant's footprint; 0 disables
     * the respective limit (the memcg default).
     */
    double lowRatio = 0.0;
    double highRatio = 0.0;
    double maxRatio = 0.0;
};

/** One colocation scenario: the shared machine plus its tenants. */
struct ColocationConfig
{
    std::vector<TenantSpec> tenants;
    /** Default policy for tenants without an override. */
    PolicyKind policy = PolicyKind::MgLru;
    SwapKind swap = SwapKind::Ssd;
    /** Total machine memory as a fraction of the summed footprints. */
    double capacityRatio = 0.5;
    unsigned trials = 4;
    std::uint64_t baseSeed = 1;
    unsigned numCpus = 12;
    /** Slow tier; see ExperimentConfig::slowTierRatio. */
    double slowTierRatio = 0.0;
    /** MG-LRU overrides for every MG-LRU tenant. */
    MgLruOverrides mglru;
    /** Observability opt-in; same env overrides as ExperimentConfig. */
    MetricsConfig metrics;
    /** Checkpoint boundary; see ExperimentConfig::checkpointAt. */
    std::uint64_t checkpointAt = 0;

    /** "colo[a+b]/<policy>/..."; a lone unnamed tenant: "<workload>/...". */
    std::string label() const;
};

/**
 * The one config encoding: append to @p sink the format version and
 * every field of @p config that shapes the machine (all but trials,
 * baseSeed and the run-only fields of encodeRunFields).
 * colocationPrefixHash hashes it.
 */
void encodeConfig(const ColocationConfig &config, Sink &sink);

/**
 * Append the run-only fields that change a trial's result (metrics
 * mode, cadence and caps, audit cadence, checkpointAt): the one list
 * the ResultCache key and the artifact names read after encodeConfig.
 */
void encodeRunFields(const ColocationConfig &config, Sink &sink);

/** Everything one trial measured about one tenant. */
struct TenantResult
{
    std::string name;
    /** Per-memcg fault/reclaim/throttle counters. */
    MemcgStats memcgStats;
    /** This tenant's lruvec counters. */
    PolicyStats policy;
    /** MG-LRU-specific counters (zeros under other policies). */
    MgLruStats mglru;
    /** Finish time of the tenant's slowest thread. */
    SimTime finishNs = 0;
    std::vector<SimTime> threadFinishNs;
    std::vector<std::uint64_t> threadBlockedFaults;
    /** Mean request latency (YCSB tenants; 0 otherwise). */
    double meanRequestNs = 0.0;
    /** YCSB latency histograms (empty otherwise). */
    LatencyHistogram readLatency;
    LatencyHistogram writeLatency;
    /** YCSB measurement-window start: sim time and machine-wide major
     *  faults at that point (0 for other workloads). */
    SimTime measureStartNs = 0;
    std::uint64_t faultsAtMeasureStart = 0;
};

/** One colocation trial: per-tenant breakdowns plus machine totals. */
struct ColocationTrialResult
{
    std::vector<TenantResult> tenants;
    /** Whole-machine kernel counters (all tenants + noise). */
    FaultStats kernel;
    SwapDeviceStats swap;
    TierStats tier;
    /** Finish time of the slowest tenant. */
    SimTime runtimeNs = 0;
    SimDuration kswapdCpuNs = 0;
    /** Workload touches issued across all tenants (boundary sizing). */
    std::uint64_t totalTouches = 0;
    MetricsSnapshot metrics;
};

/** All trials of one scenario. */
struct ColocationResult
{
    ColocationConfig config;
    std::vector<ColocationTrialResult> trials;
};

/**
 * FNV-1a over every integral field of @p r — the per-tenant analogue
 * of the TrialResult fingerprints in bit_identity_test.cpp; the
 * determinism tests compare it across worker counts.
 */
std::uint64_t tenantFingerprint(const TenantResult &r);

/**
 * Run one trial. Honors PAGESIM_AUDIT_EVERY (full cross-layer audit,
 * including the memcg invariant family, every N reclaim batches).
 * @throws std::invalid_argument for a tenant list the file comment
 *         refuses.
 */
ColocationTrialResult runColocationTrial(const ColocationConfig &config,
                                         std::uint64_t trial_seed);

/**
 * A grid cell's view of its one-tenant trial: tenant 0 and the machine
 * totals, YCSB runtime and major faults over the measurement window.
 */
TrialResult cellTrial(ColocationTrialResult trial);

} // namespace pagesim

#endif // PAGESIM_HARNESS_COLOCATION_HH
