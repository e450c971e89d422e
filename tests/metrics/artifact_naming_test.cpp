/**
 * @file
 * Per-trial metrics artifact naming. Trials run in parallel and
 * colocated tenants share one label, so the basename must carry both
 * the trial seed and (when set) the tenant name — otherwise two
 * writers silently clobber each other's trace/timeseries/jsonl files.
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

TEST_F(ArtifactDir, BasenameCarriesSeedAndTenant)
{
    const MetricsSnapshot empty;
    const std::string base = writeTrialArtifacts(
        dir.string(), "colo[a+b]/mglru/ssd/50%", 1234, empty, "ycsb");
    EXPECT_NE(base.find("ycsb"), std::string::npos);
    EXPECT_NE(base.find("seed1234"), std::string::npos);
    // Sanitized for the filesystem: no separators or shell-hostile
    // characters survive from the label.
    EXPECT_EQ(base.find('/'), std::string::npos);
    EXPECT_EQ(base.find('%'), std::string::npos);
    for (const char *ext :
         {".trace.json", ".timeseries.csv", ".metrics.jsonl"}) {
        EXPECT_TRUE(fs::exists(dir / (base + ext))) << ext;
    }
}

TEST_F(ArtifactDir, ColocatedTenantsAndTrialsNeverCollide)
{
    // Regression: one shared label used to produce one basename per
    // trial regardless of tenant, so an N-tenant trial kept only the
    // last tenant's files.
    const MetricsSnapshot empty;
    const std::string label = "colo[a+b]/mglru/ssd/50%";
    std::set<std::string> bases;
    for (const std::uint64_t seed : {7ull, 8ull}) {
        for (const char *tenant : {"a", "b"}) {
            bases.insert(writeTrialArtifacts(dir.string(), label, seed,
                                             empty, tenant));
        }
    }
    EXPECT_EQ(bases.size(), 4u) << "every (tenant, seed) pair unique";
    // Four complete artifact sets landed on disk.
    std::size_t files = 0;
    for (const auto &entry : fs::directory_iterator(dir)) {
        (void)entry;
        ++files;
    }
    EXPECT_EQ(files, 12u);
}

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

TEST_F(ArtifactDir, LegacySingleTenantNamesUnchanged)
{
    // The historical single-workload path passes no tenant; its
    // basenames keep the label-seed shape existing tooling parses.
    const MetricsSnapshot empty;
    const std::string base = writeTrialArtifacts(
        dir.string(), "ycsb_a/mglru/ssd/50%", 42, empty);
    EXPECT_EQ(base, "ycsb_a_mglru_ssd_50_-seed42");
}

} // namespace
} // namespace pagesim
