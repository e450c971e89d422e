/**
 * @file
 * ColocationRig / TrialRig: one assembled simulated machine as an
 * object, and runRig(), the one driver every trial runs through.
 *
 * There is one machine build: ColocationRig, a machine of N tenants,
 * each with its own workload, AddressSpace, policy (lruvec) and memcg.
 * A single-workload trial is its one-tenant case, and TrialRig is that
 * case as a thin view: its constructor maps an ExperimentConfig onto
 * one unnamed tenant (memcg{Low,High,Max}Ratio become the tenant's
 * low/high/max) and binds workload, policy and threads to tenant 0.
 * TrialRig also keeps an always-null `aging` member: the harness runs
 * no dedicated aging walker, but bench/pagesim_bench/traced.cc reads
 * the member and must build unmodified.
 *
 * Tenant names: a tenant's policy and thread-start RNG streams fork
 * off its name ("policy-<name>"); an unnamed lone tenant forks the
 * legacy "policy" / "thread-start" streams, which keeps the one-tenant
 * build bit-identical to the historical single-workload harness
 * (forkRng hashes the name, so construction order does not matter).
 * The constructor refuses, with std::invalid_argument and before
 * building anything, an empty tenant list, duplicate names (identical
 * streams, aliased "memcg.<name>.*" probes) and an empty name beside
 * other tenants.
 *
 * Members are declared in construction order, so destruction runs in
 * reverse. On top of the build the rig adds the two degrees of
 * freedom checkpointing needs:
 *
 *  - forRestore: build the machine but start NO actors, leaving the
 *    event queue empty for restoreCheckpoint() to repopulate;
 *  - deferObservers: skip the auditor/metrics attach at build time
 *    (both must be detached across a checkpoint boundary; the plain
 *    path still attaches inline, preserving its exact event sequence).
 *
 * The rig also exposes the RigView the checkpoint machinery consumes
 * and the one-event-at-a-time boundary loop that parks the machine at
 * the first quiescent point past a reference-count target.
 */

#ifndef PAGESIM_HARNESS_TRIAL_RIG_HH
#define PAGESIM_HARNESS_TRIAL_RIG_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/mm_audit.hh"
#include "harness/checkpoint.hh"
#include "harness/colocation.hh"
#include "harness/experiment.hh"
#include "kernel/aging_daemon.hh"
#include "kernel/background_noise.hh"
#include "kernel/kswapd.hh"
#include "kernel/memory_manager.hh"
#include "mem/address_space.hh"
#include "mem/frame_table.hh"
#include "sim/simulation.hh"
#include "swap/swap_manager.hh"
#include "workload/work_thread.hh"

namespace pagesim
{

/** How to assemble a rig; see the file comment. */
struct TrialRigOptions
{
    /** Build everything but start no actors (restore target). */
    bool forRestore = false;
    /** Leave auditor + metrics detached; installObservers() attaches. */
    bool deferObservers = false;
};

/** One simulated machine of one or more tenants. */
class ColocationRig
{
  public:
    ColocationRig(const ColocationConfig &config,
                  std::uint64_t trial_seed, const TrialRigOptions &opts);

    ColocationRig(const ColocationRig &) = delete;
    ColocationRig &operator=(const ColocationRig &) = delete;

    /** @p config, or std::invalid_argument for a refused tenant list. */
    static const ColocationConfig &
    checkTenants(const ColocationConfig &config);

    /** Total workload touches so far, across all threads. */
    std::uint64_t totalRefs() const;

    /**
     * Attach the auditor and metrics collector (no-op if already
     * attached, or if the config enables neither). The plain path
     * attaches at build; deferred paths call this at the boundary —
     * after a capture or restore, never before (a live collector
     * vetoes quiescence).
     */
    void installObservers();

    /** The checkpoint machinery's view of this machine. */
    RigView view();

    /**
     * Run one event at a time until the machine sits at a quiescent
     * point with totalRefs() >= @p target_refs. @p events_used
     * accumulates the events spent (the caller deducts them from the
     * trial's event budget). Returns false when the workload finished
     * or the budget ran out before the boundary was reached.
     */
    bool runToBoundary(std::uint64_t target_refs,
                       std::uint64_t max_events,
                       std::uint64_t &events_used);

    /** Tenant @p i's results: memcg, lruvec, threads, YCSB latency. */
    TenantResult tenantResult(std::size_t i) const;

    /**
     * Stop the metrics sampler and snapshot the collector (empty when
     * metrics are off), writing the trial's artifacts as
     * <label>-<16-hex config-prefix hash>-seed<N> when the config
     * names a directory.
     */
    MetricsSnapshot finishMetrics(const std::string &label);

    /** Per-tenant components (workload/space/policy construction). */
    struct Tenant
    {
        std::unique_ptr<Workload> workload;
        std::unique_ptr<AddressSpace> space;
        std::unique_ptr<ReplacementPolicy> policy;
        std::uint64_t footprint = 0;
    };

    ColocationConfig config;
    std::uint64_t trialSeed;
    std::uint64_t totalFootprint = 0;
    MmConfig mmConfig;
    MetricsConfig metricsConfig;
    Simulation sim;
    std::vector<Tenant> tenants;
    std::unique_ptr<FrameTable> frames;
    std::unique_ptr<SwapDevice> device;
    std::unique_ptr<SwapManager> swap;
    std::unique_ptr<MemoryManager> mm;
    std::unique_ptr<MmAuditor> auditor;
    std::unique_ptr<MetricsCollector> collector;
    std::unique_ptr<Kswapd> kswapd;
    std::unique_ptr<BackgroundNoise> noise;
    /** threads[i] = tenant i's threads (tenant-major actor order). */
    std::vector<std::vector<std::unique_ptr<WorkThread>>> threads;

  private:
    bool observersInstalled_ = false;
};

/** The one-tenant machine of a single-workload trial. */
class TrialRig : public ColocationRig
{
  public:
    TrialRig(const ExperimentConfig &config, std::uint64_t trial_seed,
             const TrialRigOptions &opts);

    /** @p config as a one-tenant scenario with an unnamed tenant. */
    static ColocationConfig scenario(const ExperimentConfig &config);

    /** Tenant 0's components. */
    std::unique_ptr<Workload> &workload;
    std::unique_ptr<ReplacementPolicy> &policy;
    std::vector<std::unique_ptr<WorkThread>> &threads;
    /** Always null; kept only because bench/pagesim_bench reads it. */
    std::unique_ptr<AgingDaemon> aging;
};

/**
 * The one trial driver. Builds the machine for @p config, and when
 * checkpointAt is non-zero fast-forwards it to that boundary: a
 * CheckpointCache hit under colocationPrefixHash(@p config) restores
 * into a forRestore rig (falling back to a cold run if the restore
 * fails); otherwise the machine runs to the boundary and is captured
 * for the next caller. Observers attach after the boundary. The
 * machine then runs to completion; a trial that does not converge
 * aborts, naming @p label.
 */
std::unique_ptr<ColocationRig>
runRig(const ColocationConfig &config, std::uint64_t trial_seed,
       const std::string &label);

} // namespace pagesim

#endif // PAGESIM_HARNESS_TRIAL_RIG_HH
