#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "harness/launch_env.hh"
#include "harness/sweep.hh"
#include "mem/address_space.hh"
#include "sim/serialize.hh"

namespace pagesim
{
namespace
{

TEST(Experiment, NamesAndLists)
{
    EXPECT_EQ(workloadKindName(WorkloadKind::Tpch), "TPC-H");
    EXPECT_EQ(workloadKindName(WorkloadKind::YcsbC), "YCSB-C");
    EXPECT_EQ(swapKindName(SwapKind::Zram), "ZRAM");
    EXPECT_EQ(allWorkloadKinds().size(), 5u);
}

/** Footprint plus a checksum64 over every op of thread 0's stream. */
std::pair<std::uint64_t, std::uint64_t>
pageRankStreamDigest()
{
    auto wl = makeWorkload(WorkloadKind::PageRank, ScalePreset::Small);
    AddressSpace space(0);
    WorkloadContext ctx;
    ctx.space = &space;
    wl->build(ctx);
    std::vector<std::uint64_t> words;
    auto stream = wl->stream(0);
    Op op;
    while (stream->next(op))
        words.insert(words.end(),
                     {static_cast<std::uint64_t>(op.kind), op.write,
                      op.id, op.vpn,
                      static_cast<std::uint64_t>(op.compute)});
    return {wl->footprintPages(),
            checksum64(words.data(), words.size() * sizeof(words[0]))};
}

TEST(PrDatasetCache, ConcurrentBuildIsSharedAndDeterministic)
{
    // The PageRank dataset cache is process-wide state that sweep-pool
    // workers share: four threads race to build the cold Small entry,
    // and every instance must replay the same ops.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> got(4);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&got, t] { got[t] = pageRankStreamDigest(); });
    for (std::thread &th : threads)
        th.join();
    EXPECT_GT(got[0].first, 0u);
    for (const auto &g : got)
        EXPECT_EQ(g, got[0]);
    EXPECT_EQ(pageRankStreamDigest(), got[0]);
}

TEST(Experiment, LabelIsReadable)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::PageRank;
    cfg.policy = PolicyKind::ScanAll;
    cfg.swap = SwapKind::Zram;
    cfg.capacityRatio = 0.75;
    EXPECT_EQ(cfg.label(), "PageRank/Scan-All/ZRAM/75%");
}

TEST(Experiment, MakeWorkloadBuildsEveryKind)
{
    for (WorkloadKind kind : allWorkloadKinds()) {
        auto wl = makeWorkload(kind, ScalePreset::Small);
        ASSERT_NE(wl, nullptr) << workloadKindName(kind);
        EXPECT_EQ(wl->name(), workloadKindName(kind));
        EXPECT_GT(wl->footprintPages(), 0u);
        EXPECT_GT(wl->numThreads(), 0u);
    }
}

TEST(Experiment, ParseTrialsOverride)
{
    // PAGESIM_TRIALS as parsed is the count effectiveTrials hands every
    // config; a malformed value is refused rather than ignored.
    const auto parse = [](const char *value) {
        return parseLaunchEnv([value](const char *name) -> const char * {
            return std::string(name) == "PAGESIM_TRIALS" ? value : nullptr;
        });
    };
    EXPECT_EQ(parse(nullptr).trials, std::nullopt);
    EXPECT_EQ(parse("").trials, std::nullopt);
    for (const char *bad : {"garbage", "3x", "0", "-2", "99999999999999"})
        EXPECT_THROW(parse(bad), ConfigError) << bad;
    for (const unsigned n : {1u, 3u, 64u}) {
        const LaunchEnv parsed = parse(std::to_string(n).c_str());
        EXPECT_EQ(parsed.trials, n);
        const ScopedLaunchEnv scope(
            [&parsed](LaunchEnv &env) { env = parsed; });
        EXPECT_EQ(effectiveTrials(8), n);
    }
}

TEST(Experiment, EffectiveTrialsHonorsEnv)
{
    // PAGESIM_TRIALS replaces a config's trial count and unset keeps
    // it; launch_env_test covers the spellings parseLaunchEnv refuses.
    {
        const ScopedLaunchEnv three([](LaunchEnv &env) { env.trials = 3; });
        EXPECT_EQ(effectiveTrials(8), 3u);
    }
    const ScopedLaunchEnv unset([](LaunchEnv &env) { env.trials.reset(); });
    EXPECT_EQ(effectiveTrials(8), 8u);
}

TEST(Experiment, TrialIsDeterministicForSeed)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Tpch;
    cfg.policy = PolicyKind::MgLru;
    cfg.scale = ScalePreset::Small;
    const TrialResult a = runTrial(cfg, 42);
    const TrialResult b = runTrial(cfg, 42);
    EXPECT_EQ(a.runtimeNs, b.runtimeNs);
    EXPECT_EQ(a.majorFaults, b.majorFaults);
    EXPECT_EQ(a.kernel.evictions, b.kernel.evictions);
    EXPECT_EQ(a.policy.ptesScanned, b.policy.ptesScanned);
}

TEST(Experiment, DifferentSeedsVary)
{
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Tpch;
    cfg.policy = PolicyKind::MgLru;
    cfg.scale = ScalePreset::Small;
    const TrialResult a = runTrial(cfg, 1);
    const TrialResult b = runTrial(cfg, 2);
    EXPECT_NE(a.runtimeNs, b.runtimeNs)
        << "per-boot jitter must differentiate trials";
}

TEST(Experiment, SummariesAggregateTrials)
{
    ExperimentResult res;
    TrialResult t1, t2;
    t1.runtimeNs = 100;
    t1.majorFaults = 10;
    t2.runtimeNs = 300;
    t2.majorFaults = 30;
    res.trials = {t1, t2};
    EXPECT_DOUBLE_EQ(res.runtimeSummary().mean(), 200.0);
    EXPECT_DOUBLE_EQ(res.faultSummary().mean(), 20.0);
}

TEST(Experiment, RunExperimentProducesAllTrials)
{
    // A one-cell sweep (the name predates runExperiment's removal).
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::YcsbA;
    cfg.policy = PolicyKind::Clock;
    cfg.scale = ScalePreset::Small;
    cfg.trials = 3;
    const ScopedLaunchEnv unset([](LaunchEnv &env) { env.trials.reset(); });
    const ExperimentResult res = runSweep({cfg}).front();
    ASSERT_EQ(res.trials.size(), 3u);
    for (const auto &t : res.trials) {
        EXPECT_GT(t.runtimeNs, 0u);
        EXPECT_GT(t.readLatency.count() + t.writeLatency.count(), 0u);
    }
    EXPECT_GT(res.mergedReadLatency().count(), 0u);
    EXPECT_GT(res.meanRequestNs(), 0.0);
}

} // namespace
} // namespace pagesim
