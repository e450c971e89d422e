/**
 * @file
 * The benchmark's four workloads and the one call every load thread
 * makes.
 *
 * A workload is a list of cells. A run walks the endless sequence of
 * (round, cell) tasks: round r of cell c is the trial seeded
 * trialSeed(baseSeed = --seed, r), so the same seed always yields the
 * same inputs. Every trial boots an empty machine (the paper's
 * reboot-per-run); nothing is cached across trials except the
 * datasets makeWorkload builds at set-up and, within one round of the
 * ckpt-big1m workload, the checkpoint its cold pass captures.
 */

#ifndef PAGESIM_BENCH_WORKLOADS_HH
#define PAGESIM_BENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "harness/colocation.hh"
#include "harness/experiment.hh"

namespace pagesim::e2e
{

/** One grid cell: a single-tenant config or a colocation scenario. */
struct Cell
{
    std::string label;
    std::variant<ExperimentConfig, ColocationConfig> config;
};

/** A named workload: its cells and how one task runs them. */
struct BenchWorkload
{
    std::string name;
    std::vector<Cell> cells;
    /**
     * Each task runs its trial twice: cold (simulate to checkpointAt,
     * capture, finish) then warm (restore, finish). The checkpoint
     * cache is cleared between rounds, so every round starts cold.
     */
    bool coldWarm = false;
    /**
     * Cell the traced run probes reclaim on: YCSB-A / MG-LRU / SSD /
     * 50%, the most reclaim-heavy cell shape (colocation: baseline at
     * 50%).
     */
    std::size_t probeCell = 0;
    /** Rounds per seed whose fingerprints pinned.json records. */
    unsigned pinnedRounds = 0;
    /** (kind, scale) pairs makeWorkload builds during set-up. */
    std::vector<std::pair<WorkloadKind, ScalePreset>> datasets;
};

/** All workloads, in BENCHMARK.json order. */
const std::vector<BenchWorkload> &benchWorkloads();

/** The workload named @p name, or nullptr. */
const BenchWorkload *findWorkload(const std::string &name);

/** Seed of round @p round when the run's base seed is @p seed. */
std::uint64_t roundSeed(std::uint64_t seed, unsigned round);

/** What one runTrial / runColocationTrial call produced. */
struct CallResult
{
    /** Result fingerprint (tenant fingerprints folded for colocation). */
    std::uint64_t fingerprint = 0;
    /** Workload references simulated, restored prefixes included. */
    std::uint64_t touches = 0;
    /** Host wall time of the call. */
    double wallMs = 0.0;
};

/** Run cell @p cell once at @p trial_seed through the public API. */
CallResult runCall(const Cell &cell, std::uint64_t trial_seed);

/**
 * FNV-1a over the TrialResult fields the repository's bit-identity
 * tests pin (the same field list as perf_core's fingerprint).
 */
std::uint64_t trialFingerprint(const TrialResult &r);

/** FNV-1a over each tenant's tenantFingerprint, in tenant order. */
std::uint64_t colocationFingerprint(const std::vector<TenantResult> &r);

} // namespace pagesim::e2e

#endif // PAGESIM_BENCH_WORKLOADS_HH
