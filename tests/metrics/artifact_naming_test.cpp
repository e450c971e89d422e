/**
 * @file
 * Per-trial metrics artifact naming. Trials run in parallel and the
 * label rounds capacity and omits overrides and run-only fields, so
 * the basename must carry a hash of everything that changes a result
 * and the trial seed — otherwise two writers silently clobber each
 * other's trace/timeseries/jsonl files.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>

#include <unistd.h>

#include "harness/experiment.hh"

namespace pagesim
{
namespace
{

namespace fs = std::filesystem;

struct ArtifactDir : ::testing::Test
{
    fs::path dir;

    void
    SetUp() override
    {
        // One directory per test and process: ctest -j runs tests in
        // parallel processes, which must never count or delete each
        // other's files.
        const ::testing::TestInfo *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        dir = fs::temp_directory_path() /
              ("pagesim_artifact_naming." + std::string(info->name()) +
               "." + std::to_string(::getpid()));
        fs::remove_all(dir);
    }

    void TearDown() override { fs::remove_all(dir); }
};

TEST_F(ArtifactDir, CellsDifferingOnlyInOverridesNeverCollide)
{
    // Regression: trial artifacts were named by label() alone, which
    // omits MG-LRU overrides, so ablation cells overwrote each other's
    // files. The config-prefix hash in the name keeps them apart.
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Tpch;
    cfg.scale = ScalePreset::Small;
    cfg.metrics.mode = MetricsMode::Counters;
    cfg.metrics.artifactDir = dir.string();
    ExperimentConfig sparse = cfg;
    sparse.mglru.bloomBits = 2048;
    ASSERT_EQ(cfg.label(), sparse.label());
    runTrial(cfg, 7);
    runTrial(sparse, 7);
    std::set<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir))
        names.insert(entry.path().filename().string());
    EXPECT_EQ(names.size(), 6u) << "two complete artifact sets";
}

TEST_F(ArtifactDir, CellsDifferingOnlyInRunFieldsNeverCollide)
{
    // Regression: the name hashed only the machine's encoding, so a
    // cold cell and a checkpointed one (observers attach at the
    // boundary, so its timeseries is shorter) wrote one basename.
    ExperimentConfig cold;
    cold.workload = WorkloadKind::YcsbA;
    cold.scale = ScalePreset::Small;
    cold.metrics.mode = MetricsMode::Full;
    cold.metrics.artifactDir = dir.string();
    ExperimentConfig warm = cold;
    warm.checkpointAt = 10000;
    ASSERT_EQ(cold.label(), warm.label());
    runTrial(cold, 7);
    runTrial(warm, 7);
    std::set<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir))
        names.insert(entry.path().filename().string());
    EXPECT_EQ(names.size(), 6u) << "two complete artifact sets";
}

TEST_F(ArtifactDir, EnvForcedMetricsModeNamesItsOwnFiles)
{
    // Regression: the name hashed the config's metrics mode, not the
    // one PAGESIM_METRICS made the trial run, so a counters cell and
    // the same cell forced to full wrote one basename.
    ExperimentConfig cfg;
    cfg.workload = WorkloadKind::Tpch;
    cfg.scale = ScalePreset::Small;
    cfg.metrics.mode = MetricsMode::Counters;
    cfg.metrics.artifactDir = dir.string();
    const ScopedLaunchEnv plain([](LaunchEnv &env) {
        env.metrics.reset();
        env.metricsDir.clear();
    });
    runTrial(cfg, 7);
    {
        const ScopedLaunchEnv full(
            [](LaunchEnv &env) { env.metrics = MetricsMode::Full; });
        runTrial(cfg, 7);
    }
    std::set<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir))
        names.insert(entry.path().filename().string());
    EXPECT_EQ(names.size(), 6u) << "two complete artifact sets";
}

TEST_F(ArtifactDir, LegacySingleTenantNamesUnchanged)
{
    // The basename keeps the label-seed shape existing tooling
    // parses, sanitized for the filesystem: no separators or
    // shell-hostile characters survive from the label.
    const MetricsSnapshot empty;
    const std::string base = writeTrialArtifacts(
        dir.string(), "ycsb_a/mglru/ssd/50%", 42, empty);
    EXPECT_EQ(base, "ycsb_a_mglru_ssd_50_-seed42");
    for (const char *ext :
         {".trace.json", ".timeseries.csv", ".metrics.jsonl"}) {
        EXPECT_TRUE(fs::exists(dir / (base + ext))) << ext;
    }
}

} // namespace
} // namespace pagesim
