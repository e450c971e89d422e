#include "harness/sweep.hh"

#include <algorithm>
#include <thread>

#include "harness/launch_env.hh"
#include "harness/trial_rig.hh"
#include "sim/parallel.hh"
#include "sim/serialize.hh"

namespace pagesim
{

std::uint64_t
trialSeed(std::uint64_t base_seed, unsigned trial)
{
    return base_seed + 1000003ull * trial;
}

namespace
{

std::string
cacheKey(const ColocationConfig &scenario)
{
    Sink sink;
    encodeConfig(scenario, sink);
    sink.u32(scenario.trials);
    sink.u64(scenario.baseSeed);
    encodeRunFields(scenario, sink);
    return {sink.data().begin(), sink.data().end()};
}

std::string
cacheKey(const ExperimentConfig &cell)
{
    return cacheKey(TrialRig::scenario(cell));
}

/** Run the not-yet-cached @p configs as one sweep into @p entries.
 *  @return how many ran. */
template <class Config, class Result>
std::uint64_t
fill(std::map<std::string, Result> &entries,
     const std::vector<Config> &configs, const SweepOptions &options)
{
    std::vector<Config> cold;
    std::vector<std::string> coldKeys;
    for (const Config &config : configs) {
        std::string k = cacheKey(config);
        // A figure may legitimately list the same cell twice (e.g. a
        // shared normalization baseline); run it once.
        if (entries.count(k) != 0 ||
            std::find(coldKeys.begin(), coldKeys.end(), k) != coldKeys.end())
            continue;
        cold.push_back(config);
        coldKeys.push_back(std::move(k));
    }
    std::vector<Result> results = runSweep(cold, options);
    for (std::size_t i = 0; i < results.size(); ++i)
        entries.emplace(coldKeys[i], std::move(results[i]));
    return results.size();
}

template <class Config, class Result>
const Result &
lookup(std::map<std::string, Result> &entries, const Config &config,
       std::uint64_t &hits, std::uint64_t &misses)
{
    const std::string k = cacheKey(config);
    if (entries.count(k) != 0)
        ++hits;
    else
        misses += fill(entries, std::vector<Config>{config}, {});
    return entries.at(k);
}

} // namespace

std::vector<ColocationResult>
runSweep(const std::vector<ColocationConfig> &scenarios,
         const SweepOptions &options)
{
    struct Task
    {
        std::size_t scenario;
        unsigned trial;
    };

    // A malformed launch variable exits and a bad tenant list throws
    // here, on the caller's thread; from a pool worker neither could
    // reach the caller cleanly.
    const LaunchEnv &env = launchEnv();
    std::vector<Task> tasks;
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        ColocationRig::checkTenants(scenarios[s]);
        const unsigned trials = env.trials.value_or(scenarios[s].trials);
        for (unsigned t = 0; t < trials; ++t)
            tasks.push_back({s, t});
    }

    // A pool only pays for itself when every worker gets a few trials;
    // below that, thread spawn/join overhead makes the "parallel" path
    // slower than just draining inline (the sweep.speedup < 1 trap on
    // small hosts). Degrade rather than spawn idle threads.
    unsigned workers = options.workers != 0 ? options.workers : env.workers;
    if (workers == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        workers = hw == 0 ? 4 : hw;
    }
    workers = std::min<std::size_t>(workers, tasks.size() / 2);

    // Each task writes only its own flat slot, so results are
    // independent of claim order and of the worker count.
    std::vector<ColocationTrialResult> slots(tasks.size());
    parallelMap(workers, slots,
                [&](std::size_t i, ColocationTrialResult &slot) {
                    const ColocationConfig &config =
                        scenarios[tasks[i].scenario];
                    slot = runColocationTrial(
                        config, trialSeed(config.baseSeed, tasks[i].trial));
                });

    std::vector<ColocationResult> results(scenarios.size());
    for (std::size_t s = 0; s < scenarios.size(); ++s)
        results[s].config = scenarios[s];
    for (std::size_t i = 0; i < tasks.size(); ++i)
        results[tasks[i].scenario].trials.push_back(std::move(slots[i]));
    return results;
}

std::vector<ExperimentResult>
runSweep(const std::vector<ExperimentConfig> &cells,
         const SweepOptions &options)
{
    std::vector<ColocationConfig> scenarios;
    for (const ExperimentConfig &cell : cells)
        scenarios.push_back(TrialRig::scenario(cell));
    std::vector<ColocationResult> runs = runSweep(scenarios, options);
    std::vector<ExperimentResult> results(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        results[c].config = cells[c];
        for (ColocationTrialResult &t : runs[c].trials)
            results[c].trials.push_back(cellTrial(std::move(t)));
    }
    return results;
}

const ColocationResult &
ResultCache::get(const ColocationConfig &scenario)
{
    return lookup(scenarios_, scenario, hits_, misses_);
}

const ExperimentResult &
ResultCache::get(const ExperimentConfig &cell)
{
    return lookup(cells_, cell, hits_, misses_);
}

void
ResultCache::prefetch(const std::vector<ColocationConfig> &scenarios,
                      const SweepOptions &options)
{
    misses_ += fill(scenarios_, scenarios, options);
}

void
ResultCache::prefetch(const std::vector<ExperimentConfig> &cells,
                      const SweepOptions &options)
{
    misses_ += fill(cells_, cells, options);
}

} // namespace pagesim
