/**
 * @file
 * Sweep scheduler: the one pooled runner and the one result cache.
 *
 * runSweep() flattens *all* (scenario x trial) pairs of a figure into
 * one task list on a shared worker pool, so no cell boundary idles the
 * host, and seeds each trial as baseSeed + 1000003 * trial whichever
 * worker runs it. A grid cell runs as its one-tenant scenario
 * (TrialRig::scenario) and reads back through cellTrial.
 */

#ifndef PAGESIM_HARNESS_SWEEP_HH
#define PAGESIM_HARNESS_SWEEP_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/colocation.hh"

namespace pagesim
{

/** Tunables for runSweep(). */
struct SweepOptions
{
    /**
     * Worker threads; 1 = serial. 0 defers to the PAGESIM_WORKERS
     * environment override, then to one per hardware thread.
     */
    unsigned workers = 0;
};

/** The deterministic seed of trial @p trial of a scenario seeded at
 *  @p base_seed (runSweep's one derivation). */
std::uint64_t trialSeed(std::uint64_t base_seed, unsigned trial);

inline std::uint64_t
trialSeed(const ExperimentConfig &config, unsigned trial)
{
    return trialSeed(config.baseSeed, trial);
}

/**
 * Run every trial of every scenario on one shared pool, honoring
 * PAGESIM_TRIALS; results do not depend on the worker count.
 * @throws std::invalid_argument, before any trial starts, for a
 *         tenant list runColocationTrial refuses.
 */
std::vector<ColocationResult>
runSweep(const std::vector<ColocationConfig> &scenarios,
         const SweepOptions &options = {});

/** The same pool over grid cells, each trial read through cellTrial. */
std::vector<ExperimentResult>
runSweep(const std::vector<ExperimentConfig> &cells,
         const SweepOptions &options = {});

/**
 * Result cache keyed by scenario (a grid cell by its one-tenant
 * scenario): each distinct one runs at most once per process.
 *
 * prefetch() is the fast path: declare a figure's scenarios up front
 * and the misses run as ONE pooled sweep; subsequent get() calls are
 * pure lookups. get() on a cold scenario still works (runs it on the
 * spot) so incremental callers stay correct, just slower.
 *
 * The key is encodeConfig, trials, baseSeed, then encodeRunFields. A
 * cell keeps only its ExperimentResult view, so no trial is stored
 * twice; asking for a cell and then for its scenario runs it twice.
 */
class ResultCache
{
  public:
    /** Result for @p scenario, running it on a miss. */
    const ColocationResult &get(const ColocationConfig &scenario);
    const ExperimentResult &get(const ExperimentConfig &cell);

    /** Run all not-yet-cached scenarios as one pooled sweep. */
    void prefetch(const std::vector<ColocationConfig> &scenarios,
                  const SweepOptions &options = {});
    void prefetch(const std::vector<ExperimentConfig> &cells,
                  const SweepOptions &options = {});

    /** Scenarios computed (by get or prefetch) since construction. */
    std::uint64_t misses() const { return misses_; }
    /** get() calls answered from the cache. */
    std::uint64_t hits() const { return hits_; }

  private:
    std::map<std::string, ColocationResult> scenarios_;
    std::map<std::string, ExperimentResult> cells_;
    std::uint64_t misses_ = 0;
    std::uint64_t hits_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_HARNESS_SWEEP_HH
