/**
 * @file
 * Experiment definitions: the grid the paper sweeps.
 *
 * One ExperimentConfig = one cell of
 *   {workload} x {policy} x {capacity ratio} x {swap medium},
 * run for N independent trials. Each trial is a fresh Simulation (the
 * paper's reboot-per-execution), seeded by trialSeed (sweep.hh); the
 * workload content itself is seeded separately and identical across
 * trials.
 */

#ifndef PAGESIM_HARNESS_EXPERIMENT_HH
#define PAGESIM_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness/launch_env.hh"
#include "kernel/fault_stats.hh"
#include "kernel/tiered_memory.hh"
#include "metrics/collector.hh"
#include "policy/mglru/mglru_policy.hh"
#include "policy/policy_factory.hh"
#include "stats/histogram.hh"
#include "stats/summary.hh"
#include "swap/swap_device.hh"
#include "workload/workload.hh"

namespace pagesim
{

/** Swap media the paper tests. */
enum class SwapKind
{
    Ssd,
    Zram,
};

const std::string &swapKindName(SwapKind kind);

/**
 * The benchmark workloads. The first five are the paper's grid;
 * FileBuffer is this repo's extension for tier/PID characterization
 * (buffered I/O), which the paper leaves to future work.
 */
enum class WorkloadKind
{
    Tpch,
    PageRank,
    YcsbA,
    YcsbB,
    YcsbC,
    FileBuffer,
};

/** The paper's five workloads (excludes FileBuffer). */
const std::vector<WorkloadKind> &allWorkloadKinds();
const std::string &workloadKindName(WorkloadKind kind);

/**
 * Workload sizing presets. Default for the figure benches, Small for
 * tests. The Big presets exist for the big-machine scaling study:
 * they blow the YCSB slab up to a 1M- / 64M-page footprint (4 GiB /
 * 256 GiB of simulated memory) with large multi-page items, so the
 * page tables — not the request stream — dominate the trial. Only the
 * YCSB workloads are sized by them; the other workloads fall back to
 * Default sizing.
 */
enum class ScalePreset
{
    Default,
    Small,
    Big1M,
    Big64M,
};

/** Build a workload instance (datasets cached across calls). */
std::unique_ptr<Workload> makeWorkload(WorkloadKind kind,
                                       ScalePreset scale);

/**
 * MG-LRU knobs set on top of the policy variant: the rig applies each
 * set value after mgLruConfigFor(kind) and the capacity-derived aging
 * gates (so Scan-Rand at randomScanProb 0.25 runs at 0.25, not 0.5).
 * encodeConfig keys them like every other field.
 */
struct MgLruOverrides
{
    std::optional<std::uint32_t> bloomBits;
    std::optional<unsigned> bloomHashes;
    std::optional<std::uint32_t> youngDensityThreshold;
    std::optional<double> randomScanProb;
    std::optional<bool> tierProtection;
    struct Pid
    {
        std::optional<double> kp;
        std::optional<double> ki;
    } pid;
};

/** One grid cell. */
struct ExperimentConfig
{
    WorkloadKind workload = WorkloadKind::Tpch;
    PolicyKind policy = PolicyKind::MgLru;
    SwapKind swap = SwapKind::Ssd;
    /** Memory capacity as a fraction of the workload footprint. */
    double capacityRatio = 0.5;
    /**
     * TPP tiered-memory extension: slow-tier capacity as a fraction
     * of the footprint (0 disables tiering). With tiering on,
     * capacityRatio sizes the FAST tier and reclaim demotes before it
     * swaps.
     */
    double slowTierRatio = 0.0;
    unsigned trials = 8;
    std::uint64_t baseSeed = 1;
    unsigned numCpus = 12;
    ScalePreset scale = ScalePreset::Default;

    /**
     * MG-LRU knobs outside the paper's named variants (Bloom sizing,
     * density gate, PID gains...), swept by the ablation benches.
     */
    MgLruOverrides mglru;

    /** Observability opt-in (default Off = zero overhead); see
     *  effectiveMetricsConfig for the launch overrides. */
    MetricsConfig metrics;

    /**
     * Optional cgroup-v2 watermarks on the workload's memcg, as
     * fractions of the footprint (0, the default, disables each): the
     * low/high/max ratios of the one tenant a trial runs as. With no
     * sibling memcg, memory.low shields nothing from global reclaim
     * (protection is relative to siblings, as in the kernel); only
     * high/max change behavior here.
     */
    double memcgLowRatio = 0.0;
    double memcgHighRatio = 0.0;
    double memcgMaxRatio = 0.0;

    /**
     * Checkpoint boundary: capture a snapshot of the whole simulated
     * machine at the first quiescent point at or after this many
     * workload touches, keyed in the process-global CheckpointCache by
     * (configPrefixHash, trial seed, boundary). Later trials with the
     * same key — other sweep cells sharing a warmup prefix, or
     * repeated sweeps — restore the snapshot instead of re-simulating
     * the prefix, bit-identically. With PAGESIM_CHECKPOINT_DIR set,
     * snapshots persist across processes. 0 disables.
     */
    std::uint64_t checkpointAt = 0;

    /** "<workload>/<policy>/<swap>/<capacity>%", its scenario's label. */
    std::string label() const;
};

/** Everything measured in one trial. */
struct TrialResult
{
    /** Wall sim-time of the run (YCSB: the measured request window). */
    SimTime runtimeNs = 0;
    /** Major faults (YCSB: within the measured window). */
    std::uint64_t majorFaults = 0;

    FaultStats kernel;
    PolicyStats policy;
    SwapDeviceStats swap;
    /** MG-LRU-specific counters (zeros under Clock). */
    MgLruStats mglru;

    /** YCSB latency histograms (empty otherwise). */
    LatencyHistogram readLatency;
    LatencyHistogram writeLatency;

    /** Per-thread finish times (straggler analysis). */
    std::vector<SimTime> threadFinishNs;
    /** Per-thread blocking faults (straggler analysis). */
    std::vector<std::uint64_t> threadBlockedFaults;

    /** Straggler skew: max/mean of per-thread blocking faults. */
    double faultSkew() const;

    /** Daemon CPU consumption. */
    SimDuration kswapdCpuNs = 0;
    SimDuration agingCpuNs = 0;
    std::uint64_t agingPasses = 0;

    /** Tiered-memory extension counters (zeros when disabled). */
    TierStats tier;

    /** Mean request latency (YCSB; 0 otherwise). */
    double meanRequestNs = 0.0;

    /**
     * Total workload touches across all threads at trial end. Not part
     * of the result fingerprint (it is an input-side count, identical
     * by construction); benches use it to place checkpoint boundaries
     * as a fraction of a cell's reference stream.
     */
    std::uint64_t totalTouches = 0;

    /** Observability snapshot (empty unless metrics were enabled). */
    MetricsSnapshot metrics;
};

/** All trials of one cell plus aggregate views. */
struct ExperimentResult
{
    ExperimentConfig config;
    std::vector<TrialResult> trials;

    Summary runtimeSummary() const;
    Summary faultSummary() const;
    /** Merged latency histograms across trials. */
    LatencyHistogram mergedReadLatency() const;
    LatencyHistogram mergedWriteLatency() const;
    /** Mean of per-trial mean request latencies (YCSB). */
    double meanRequestNs() const;
};

/**
 * Run one trial: cellTrial(runColocationTrial(TrialRig::scenario(
 * @p config), @p trial_seed)) (colocation.hh).
 */
TrialResult runTrial(const ExperimentConfig &config,
                     std::uint64_t trial_seed);

/**
 * Write the per-trial artifact files for @p snapshot under @p dir
 * (created if needed): <label>-seed<N>.trace.json, .timeseries.csv,
 * and .metrics.jsonl, with '/', '%' and spaces in @p label mapped to
 * '_'. Returns the artifact basename (without extension). A trial
 * writes one machine-wide set; per-tenant series are its
 * "memcg.<name>.*" columns.
 */
std::string writeTrialArtifacts(const std::string &dir,
                                const std::string &label,
                                std::uint64_t trial_seed,
                                const MetricsSnapshot &snapshot);

} // namespace pagesim

#endif // PAGESIM_HARNESS_EXPERIMENT_HH
