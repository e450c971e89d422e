#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "sim/parallel.hh"

namespace pagesim
{
namespace
{

std::vector<ExperimentConfig>
smallCells()
{
    std::vector<ExperimentConfig> cells;
    ExperimentConfig base;
    base.scale = ScalePreset::Small;
    base.trials = 2;
    for (WorkloadKind wk :
         {WorkloadKind::Tpch, WorkloadKind::PageRank}) {
        base.workload = wk;
        for (PolicyKind pk : {PolicyKind::Clock, PolicyKind::MgLru}) {
            base.policy = pk;
            cells.push_back(base);
        }
    }
    return cells;
}

void
expectSameResults(const std::vector<ExperimentResult> &a,
                  const std::vector<ExperimentResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t c = 0; c < a.size(); ++c) {
        ASSERT_EQ(a[c].trials.size(), b[c].trials.size());
        for (std::size_t t = 0; t < a[c].trials.size(); ++t) {
            EXPECT_EQ(a[c].trials[t].runtimeNs,
                      b[c].trials[t].runtimeNs);
            EXPECT_EQ(a[c].trials[t].majorFaults,
                      b[c].trials[t].majorFaults);
            EXPECT_EQ(a[c].trials[t].kernel.evictions,
                      b[c].trials[t].kernel.evictions);
        }
    }
}

TEST(Sweep, TrialSeedIndependentOfScheduling)
{
    ExperimentConfig cfg;
    cfg.baseSeed = 12345;
    // The derivation is pure config + trial index: no global state,
    // no worker identity.
    EXPECT_EQ(trialSeed(cfg, 0), 12345u);
    EXPECT_EQ(trialSeed(cfg, 2) - trialSeed(cfg, 1),
              trialSeed(cfg, 1) - trialSeed(cfg, 0));
    ExperimentConfig other = cfg;
    other.workload = WorkloadKind::PageRank;
    EXPECT_EQ(trialSeed(cfg, 3), trialSeed(other, 3));
}

TEST(Sweep, ParallelMatchesSerial)
{
    const std::vector<ExperimentConfig> cells = smallCells();
    SweepOptions serial;
    serial.workers = 1;
    SweepOptions parallel;
    parallel.workers = 4;
    const std::vector<ExperimentResult> a = runSweep(cells, serial);
    const std::vector<ExperimentResult> b = runSweep(cells, parallel);
    expectSameResults(a, b);
}

TEST(Sweep, MatchesPerCellRunExperiment)
{
    const std::vector<ExperimentConfig> cells = smallCells();
    std::vector<ExperimentResult> per_cell;
    per_cell.reserve(cells.size());
    for (const ExperimentConfig &cell : cells)
        per_cell.push_back(runExperiment(cell));
    const std::vector<ExperimentResult> pooled = runSweep(cells);
    expectSameResults(per_cell, pooled);
}

TEST(Sweep, ResultCacheHitsAndMisses)
{
    ResultCache cache;
    std::vector<ExperimentConfig> cells = smallCells();
    cells.resize(2);
    cache.prefetch(cells);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 0u);

    // Declared cells now come from the cache...
    const ExperimentResult &first = cache.get(cells[0]);
    cache.get(cells[1]);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(&cache.get(cells[0]), &first); // same stored object

    // ...a re-prefetch of known cells runs nothing new...
    cache.prefetch(cells);
    EXPECT_EQ(cache.misses(), 2u);

    // ...and an undeclared cell still works as a one-off miss.
    ExperimentConfig cold = cells[0];
    cold.workload = WorkloadKind::PageRank;
    cache.get(cold);
    EXPECT_EQ(cache.misses(), 3u);

    // Cached results match a fresh computation.
    expectSameResults({cache.get(cells[0])}, {runExperiment(cells[0])});
}

TEST(Sweep, ResultCacheKeyCoversResultChangingConfig)
{
    // Regression: every config field that can change a TrialResult
    // must be part of the cache key, or two different cells alias to
    // one stale entry. The memcg watermark ratios and the metrics
    // mode are the recent additions; capacity is the historical
    // near-miss (two ratios that round to the same percent label).
    ResultCache cache;
    ExperimentConfig base;
    base.scale = ScalePreset::Small;
    base.trials = 1;
    base.workload = WorkloadKind::Tpch;
    cache.get(base);
    EXPECT_EQ(cache.misses(), 1u);
    cache.get(base);
    EXPECT_EQ(cache.hits(), 1u) << "identical config hits";

    ExperimentConfig capped = base;
    capped.memcgMaxRatio = 0.6;
    cache.get(capped);
    EXPECT_EQ(cache.misses(), 2u) << "memory.max changes reclaim";

    ExperimentConfig high = base;
    high.memcgHighRatio = 0.7;
    cache.get(high);
    EXPECT_EQ(cache.misses(), 3u) << "memory.high throttles allocs";

    ExperimentConfig low = base;
    low.memcgLowRatio = 0.2;
    cache.get(low);
    EXPECT_EQ(cache.misses(), 4u) << "memory.low shapes fan-out";

    ExperimentConfig sampled = base;
    sampled.metrics.mode = MetricsMode::Counters;
    cache.get(sampled);
    EXPECT_EQ(cache.misses(), 5u)
        << "metrics mode changes what a result carries";

    ExperimentConfig close = base;
    close.capacityRatio = base.capacityRatio + 0.001;
    cache.get(close);
    EXPECT_EQ(cache.misses(), 6u)
        << "full-precision capacity, not the rounded label";

    ExperimentConfig warmed = base;
    warmed.warmupRefs = 1000;
    cache.get(warmed);
    EXPECT_EQ(cache.misses(), 7u)
        << "functional warmup changes simulated timing";

    ExperimentConfig boundary = base;
    boundary.checkpointAt = 1000;
    cache.get(boundary);
    EXPECT_EQ(cache.misses(), 8u)
        << "checkpointed cells must not alias cold cells";

    // Ratios closer than std::to_string's six decimals.
    ExperimentConfig fine = base;
    fine.capacityRatio = 0.1234561;
    cache.get(fine);
    EXPECT_EQ(cache.misses(), 9u);
    fine.capacityRatio = 0.1234564;
    cache.get(fine);
    EXPECT_EQ(cache.misses(), 10u) << "capacity keyed exactly";
    ExperimentConfig fineMax = base;
    fineMax.memcgMaxRatio = 0.6000001;
    cache.get(fineMax);
    fineMax.memcgMaxRatio = 0.6000004;
    cache.get(fineMax);
    EXPECT_EQ(cache.misses(), 12u) << "watermarks keyed exactly";

    // The metrics cadence and caps change what TrialResult.metrics
    // holds.
    ExperimentConfig sampler = base;
    sampler.metrics.mode = MetricsMode::Full;
    cache.get(sampler);
    EXPECT_EQ(cache.misses(), 13u);
    ExperimentConfig denser = sampler;
    denser.metrics.sampleEvery = sampler.metrics.sampleEvery / 2;
    cache.get(denser);
    EXPECT_EQ(cache.misses(), 14u) << "sampleEvery keyed";
    ExperimentConfig fewerSamples = sampler;
    fewerSamples.metrics.maxSamples = 16;
    cache.get(fewerSamples);
    EXPECT_EQ(cache.misses(), 15u) << "maxSamples keyed";
    ExperimentConfig fewerSpans = sampler;
    fewerSpans.metrics.maxSpans = 16;
    cache.get(fewerSpans);
    EXPECT_EQ(cache.misses(), 16u) << "maxSpans keyed";
    cache.get(fewerSpans);
    EXPECT_EQ(cache.misses(), 16u) << "and still hits when unchanged";
}

TEST(Sweep, ResultCacheKeyCoversAuditCadence)
{
    // Regression: an audit-heavy run has the same counters as an
    // unaudited one only by luck. The cadence is read from the
    // environment and cached per process, so a cached result must not
    // survive a PAGESIM_AUDIT_EVERY change within one process either.
    // Start unaudited whatever the caller's environment (the sanitizer
    // CI job audits every batch), and put its setting back after.
    const char *outer = std::getenv("PAGESIM_AUDIT_EVERY");
    const bool had_outer = outer != nullptr;
    const std::string saved = had_outer ? outer : "";
    unsetenv("PAGESIM_AUDIT_EVERY");
    detail::refreshAuditEveryOverrideCacheForTests();
    ResultCache cache;
    ExperimentConfig base;
    base.scale = ScalePreset::Small;
    base.trials = 1;
    base.workload = WorkloadKind::Tpch;
    cache.get(base);
    EXPECT_EQ(cache.misses(), 1u);

    setenv("PAGESIM_AUDIT_EVERY", "32", 1);
    detail::refreshAuditEveryOverrideCacheForTests();
    cache.get(base);
    EXPECT_EQ(cache.misses(), 2u)
        << "audit cadence joined the key; same config must re-run";
    cache.get(base);
    EXPECT_EQ(cache.hits(), 1u) << "stable cadence hits again";

    unsetenv("PAGESIM_AUDIT_EVERY");
    detail::refreshAuditEveryOverrideCacheForTests();
    cache.get(base);
    EXPECT_EQ(cache.hits(), 2u) << "back to the unaudited entry";

    if (had_outer) {
        setenv("PAGESIM_AUDIT_EVERY", saved.c_str(), 1);
        detail::refreshAuditEveryOverrideCacheForTests();
    }
}

TEST(Sweep, WorkersOverrideParsing)
{
    // The PAGESIM_WORKERS plumbing shared by runSweep, the sharded
    // aging scan, and the auditor. workerOverride() caches its getenv
    // read, so the parser is exercised directly.
    EXPECT_EQ(parseWorkersOverride(nullptr), 0u);
    EXPECT_EQ(parseWorkersOverride(""), 0u);
    EXPECT_EQ(parseWorkersOverride("4"), 4u);
    EXPECT_EQ(parseWorkersOverride("1"), 1u);
    EXPECT_EQ(parseWorkersOverride("1024"), 1024u);
    // Garbage, non-positive, and absurd values all mean "no override"
    // rather than a crash or a zero-thread pool.
    EXPECT_EQ(parseWorkersOverride("0"), 0u);
    EXPECT_EQ(parseWorkersOverride("-3"), 0u);
    EXPECT_EQ(parseWorkersOverride("lots"), 0u);
    EXPECT_EQ(parseWorkersOverride("4x"), 0u);
    EXPECT_EQ(parseWorkersOverride("1025"), 0u);
}

TEST(Sweep, ExplicitWorkersBeatsOverride)
{
    // options.workers != 0 must win over the environment: figure
    // benches pin workers explicitly and may run under a CI job that
    // exports PAGESIM_WORKERS for the scan/audit paths.
    const std::vector<ExperimentConfig> cells = smallCells();
    SweepOptions pinned;
    pinned.workers = 2;
    const std::vector<ExperimentResult> a = runSweep(cells, pinned);
    SweepOptions serial;
    serial.workers = 1;
    expectSameResults(a, runSweep(cells, serial));
}

TEST(Sweep, HonorsTrialsOverrideConsistently)
{
    // The cached PAGESIM_TRIALS read (tested in experiment_test)
    // applies to sweeps too: every cell gets the same trial count.
    const std::vector<ExperimentConfig> cells = smallCells();
    const std::vector<ExperimentResult> results = runSweep(cells);
    for (const ExperimentResult &res : results)
        EXPECT_EQ(res.trials.size(), effectiveTrials(cells.front()));
}

} // namespace
} // namespace pagesim
