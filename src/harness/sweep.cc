#include "harness/sweep.hh"

#include <algorithm>
#include <bit>

#include "sim/parallel.hh"

namespace pagesim
{

std::uint64_t
trialSeed(const ExperimentConfig &config, unsigned trial)
{
    return config.baseSeed + 1000003ull * trial;
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
    parallelFor(workers, tasks.size(), [&](std::size_t i) {
        const ExperimentConfig &config = cells[tasks[i].cell];
        slots[i] = runTrial(config, trialSeed(config, tasks[i].trial));
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
    // Every config field that can change a TrialResult must appear
    // here, else two different cells alias one cache slot and a bench
    // silently plots the wrong data. label() covers workload/policy/
    // swap/capacity; ratios are keyed by their exact bit patterns
    // (int percents and std::to_string's six decimals both aliased
    // fine-grained sweeps), and the memcg watermarks and metrics
    // config joined with the memcg refactor (metrics never perturb the
    // simulation, but mode, cadence and caps decide what
    // TrialResult.metrics holds). The
    // effective audit cadence is keyed too: an audit-heavy run has the
    // same counters only by luck, and a cached result must not leak
    // across a PAGESIM_AUDIT_EVERY change. warmupRefs/checkpointAt
    // joined with fast-forward execution (warmup changes the simulated
    // timing detail; checkpointAt does not, but keying it keeps
    // cached-vs-cold comparisons honest). mgTweak remains unkeyable —
    // see the class comment.
    const auto exact = [](double v) {
        return std::to_string(std::bit_cast<std::uint64_t>(v));
    };
    return config.label() + "/" + std::to_string(config.trials) + "/" +
           std::to_string(config.baseSeed) + "/" +
           std::to_string(static_cast<int>(config.scale)) + "/" +
           exact(config.capacityRatio) + "/" +
           exact(config.slowTierRatio) + "/" +
           std::to_string(config.numCpus) + "/" +
           exact(config.memcgLowRatio) + "/" +
           exact(config.memcgHighRatio) + "/" +
           exact(config.memcgMaxRatio) + "/" +
           std::to_string(static_cast<int>(config.metrics.mode)) + "/" +
           std::to_string(config.metrics.sampleEvery) + "/" +
           std::to_string(config.metrics.maxSamples) + "/" +
           std::to_string(config.metrics.maxSpans) + "/" +
           std::to_string(effectiveAuditEvery()) + "/" +
           std::to_string(config.warmupRefs) + "/" +
           std::to_string(config.checkpointAt);
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
        if (cells_.count(k) != 0)
            continue;
        // A figure may legitimately list the same cell twice (e.g. a
        // shared normalization baseline); run it once.
        bool queued = false;
        for (const std::string &seen : coldKeys)
            if (seen == k) {
                queued = true;
                break;
            }
        if (queued)
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
