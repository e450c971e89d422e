#include "harness/sweep.hh"

#include <algorithm>

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

std::vector<ExperimentResult>
runSweep(const std::vector<ExperimentConfig> &cells,
         const SweepOptions &options)
{
    struct Task
    {
        std::size_t cell;
        unsigned trial;
    };

    std::vector<Task> tasks;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const unsigned trials = effectiveTrials(cells[c].trials);
        for (unsigned t = 0; t < trials; ++t)
            tasks.push_back({c, t});
    }

    // A pool only pays for itself when every worker gets a few trials;
    // below that, thread spawn/join overhead makes the "parallel" path
    // slower than just draining inline (the sweep.speedup < 1 trap on
    // small hosts). Degrade rather than spawn idle threads.
    const unsigned workers = std::min<std::size_t>(
        options.workers != 0 ? options.workers : hostWorkers(),
        tasks.size() / 2);

    // Each task writes only its own flat slot, so results are
    // independent of claim order and of the worker count.
    std::vector<TrialResult> slots(tasks.size());
    parallelMap(workers, slots, [&](std::size_t i, TrialResult &slot) {
        const ExperimentConfig &config = cells[tasks[i].cell];
        slot = runTrial(config, trialSeed(config, tasks[i].trial));
    });

    std::vector<ExperimentResult> results(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c)
        results[c].config = cells[c];
    for (std::size_t i = 0; i < tasks.size(); ++i)
        results[tasks[i].cell].trials.push_back(std::move(slots[i]));
    return results;
}

std::string
ResultCache::key(const ExperimentConfig &config)
{
    // The machine's encoding, then the run-only fields: trials and
    // seed; metrics mode, cadence and caps decide what
    // TrialResult.metrics holds; an audited run matches an unaudited
    // one only by luck; keying checkpointAt keeps cached-vs-cold
    // comparisons honest.
    const ColocationConfig c = TrialRig::scenario(config);
    Sink sink;
    encodeConfig(c, sink);
    sink.u32(c.trials);
    sink.u64(c.baseSeed);
    sink.u32(static_cast<std::uint32_t>(c.metrics.mode));
    sink.u64(c.metrics.sampleEvery);
    sink.u64(c.metrics.maxSamples);
    sink.u64(c.metrics.maxSpans);
    sink.u32(effectiveAuditEvery());
    sink.u64(c.checkpointAt);
    return {sink.data().begin(), sink.data().end()};
}

const ExperimentResult &
ResultCache::get(const ExperimentConfig &config)
{
    const std::string k = key(config);
    auto it = cells_.find(k);
    if (it == cells_.end()) {
        ++misses_;
        it = cells_.emplace(k, runExperiment(config)).first;
    } else {
        ++hits_;
    }
    return it->second;
}

void
ResultCache::prefetch(const std::vector<ExperimentConfig> &cells,
                      const SweepOptions &options)
{
    std::vector<ExperimentConfig> cold;
    std::vector<std::string> coldKeys;
    for (const ExperimentConfig &config : cells) {
        std::string k = key(config);
        // A figure may legitimately list the same cell twice (e.g. a
        // shared normalization baseline); run it once.
        if (cells_.count(k) != 0 ||
            std::find(coldKeys.begin(), coldKeys.end(), k) != coldKeys.end())
            continue;
        cold.push_back(config);
        coldKeys.push_back(std::move(k));
    }
    if (cold.empty())
        return;
    std::vector<ExperimentResult> results = runSweep(cold, options);
    for (std::size_t i = 0; i < results.size(); ++i) {
        ++misses_;
        cells_.emplace(coldKeys[i], std::move(results[i]));
    }
}

} // namespace pagesim
