#include <gtest/gtest.h>

#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "harness/sweep.hh"
#include "harness/trial_rig.hh"
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
    // One sweep per cell (the name predates runExperiment's removal).
    const std::vector<ExperimentConfig> cells = smallCells();
    std::vector<ExperimentResult> per_cell;
    per_cell.reserve(cells.size());
    for (const ExperimentConfig &cell : cells)
        per_cell.push_back(runSweep({cell}).front());
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
    expectSameResults({cache.get(cells[0])}, runSweep({cells[0]}));
}

TEST(Sweep, ResultCacheRunsColocationScenarios)
{
    // Roomy machines: little reclaim, so cheap under any audit cadence.
    ColocationConfig scenario;
    scenario.capacityRatio = 1.0;
    scenario.trials = 1;
    TenantSpec a;
    a.name = "a";
    a.workload = WorkloadKind::YcsbC;
    TenantSpec b;
    b.name = "b";
    b.workload = WorkloadKind::Tpch;
    scenario.tenants = {a, b};
    ResultCache cache;
    const ColocationResult &first = cache.get(scenario);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(&cache.get(scenario), &first);
    EXPECT_EQ(cache.hits(), 1u);
    ASSERT_EQ(first.trials.size(), effectiveTrials(1));
    EXPECT_EQ(first.trials[0].tenants.size(), 2u);
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

    ExperimentConfig boundary = base;
    boundary.checkpointAt = 1000;
    cache.get(boundary);
    EXPECT_EQ(cache.misses(), 7u)
        << "checkpointed cells must not alias cold cells";

    // Ratios closer than std::to_string's six decimals.
    ExperimentConfig fine = base;
    fine.capacityRatio = 0.1234561;
    cache.get(fine);
    EXPECT_EQ(cache.misses(), 8u);
    fine.capacityRatio = 0.1234564;
    cache.get(fine);
    EXPECT_EQ(cache.misses(), 9u) << "capacity keyed exactly";
    ExperimentConfig fineMax = base;
    fineMax.memcgMaxRatio = 0.6000001;
    cache.get(fineMax);
    fineMax.memcgMaxRatio = 0.6000004;
    cache.get(fineMax);
    EXPECT_EQ(cache.misses(), 11u) << "watermarks keyed exactly";

    // The metrics cadence and caps change what TrialResult.metrics
    // holds.
    ExperimentConfig sampler = base;
    sampler.metrics.mode = MetricsMode::Full;
    cache.get(sampler);
    EXPECT_EQ(cache.misses(), 12u);
    ExperimentConfig denser = sampler;
    denser.metrics.sampleEvery = sampler.metrics.sampleEvery / 2;
    cache.get(denser);
    EXPECT_EQ(cache.misses(), 13u) << "sampleEvery keyed";
    ExperimentConfig fewerSamples = sampler;
    fewerSamples.metrics.maxSamples = 16;
    cache.get(fewerSamples);
    EXPECT_EQ(cache.misses(), 14u) << "maxSamples keyed";
    ExperimentConfig fewerSpans = sampler;
    fewerSpans.metrics.maxSpans = 16;
    cache.get(fewerSpans);
    EXPECT_EQ(cache.misses(), 15u) << "maxSpans keyed";
    cache.get(fewerSpans);
    EXPECT_EQ(cache.misses(), 15u) << "and still hits when unchanged";

    // Machine fields the old hand-kept key list covered only through
    // label() or not at all, and every MG-LRU override: each is its
    // own cell, even where the value cannot change a result.
    struct Case
    {
        const char *what;
        void (*set)(ExperimentConfig &);
    };
    const Case cases[] = {
        {"slowTierRatio", [](ExperimentConfig &c) { c.slowTierRatio = 0.25; }},
        {"numCpus", [](ExperimentConfig &c) { c.numCpus = 4; }},
        {"swap", [](ExperimentConfig &c) { c.swap = SwapKind::Zram; }},
        // Two cells that differ only in scale.
        {"FileBuffer",
         [](ExperimentConfig &c) { c.workload = WorkloadKind::FileBuffer; }},
        {"scale",
         [](ExperimentConfig &c) {
             c.workload = WorkloadKind::FileBuffer;
             c.scale = ScalePreset::Default;
         }},
        {"mglru.bloomBits",
         [](ExperimentConfig &c) { c.mglru.bloomBits = 2048; }},
        {"mglru.bloomHashes",
         [](ExperimentConfig &c) { c.mglru.bloomHashes = 1; }},
        {"mglru.youngDensityThreshold",
         [](ExperimentConfig &c) { c.mglru.youngDensityThreshold = 32; }},
        {"mglru.randomScanProb",
         [](ExperimentConfig &c) { c.mglru.randomScanProb = 0.25; }},
        {"mglru.tierProtection",
         [](ExperimentConfig &c) { c.mglru.tierProtection = false; }},
        {"mglru.pid.kp", [](ExperimentConfig &c) { c.mglru.pid.kp = 2.0; }},
        {"mglru.pid.ki", [](ExperimentConfig &c) { c.mglru.pid.ki = 0.5; }},
        // A set override is its own cell even at the variant's value.
        {"an override equal to the default",
         [](ExperimentConfig &c) { c.mglru.tierProtection = true; }},
    };
    for (const Case &field : cases) {
        ExperimentConfig changed = base;
        field.set(changed);
        const std::uint64_t before = cache.misses();
        cache.get(changed);
        EXPECT_EQ(cache.misses(), before + 1) << field.what << " keyed";
        cache.get(changed);
        EXPECT_EQ(cache.misses(), before + 1) << field.what << " hits again";
    }
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
    // The PAGESIM_WORKERS plumbing shared by runSweep, the colocation
    // trial pool, and the auditor. workerOverride() caches its getenv
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

TEST(Sweep, ParallelMapFillsEachSlotOnce)
{
    // Every pool user is a slot fill: each task gets its own slot by
    // reference, exactly once, at any worker count, and a span over a
    // prefix of reused scratch leaves the rest alone.
    for (const unsigned workers : {1u, 4u}) {
        std::vector<std::size_t> slots(37, 0);
        parallelMap(workers, slots, [](std::size_t i, std::size_t &slot) {
            slot += i + 1;
        });
        for (std::size_t i = 0; i < slots.size(); ++i)
            EXPECT_EQ(slots[i], i + 1) << "workers " << workers;

        parallelMap(workers, std::span(slots).first(5),
                    [](std::size_t, std::size_t &slot) { slot = 0; });
        for (std::size_t i = 0; i < slots.size(); ++i)
            EXPECT_EQ(slots[i], i < 5 ? 0 : i + 1)
                << "workers " << workers;
    }
}

TEST(Sweep, ExplicitWorkersBeatsOverride)
{
    // options.workers != 0 must win over the environment: figure
    // benches pin workers explicitly and may run under a CI job that
    // exports PAGESIM_WORKERS for the audit path.
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
        EXPECT_EQ(res.trials.size(), effectiveTrials(cells.front().trials));
}

} // namespace
} // namespace pagesim
