/**
 * @file
 * Colocation scenario tests: per-tenant results exist and are
 * deterministic — bit-identical across repeated runs and the trial
 * pool, and pinned — with the full cross-layer auditor (memcg
 * invariant family included) sampling reclaim batches; tenant lists
 * the rig cannot tell apart are refused.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "harness/colocation.hh"

namespace pagesim
{
namespace
{

/** Three small tenants exercising mixed workloads and watermarks. */
ColocationConfig
threeTenants()
{
    ColocationConfig config;
    TenantSpec ycsb;
    ycsb.name = "ycsb";
    ycsb.workload = WorkloadKind::YcsbA;
    ycsb.lowRatio = 0.5;
    TenantSpec tpch;
    tpch.name = "tpch";
    tpch.workload = WorkloadKind::Tpch;
    tpch.maxRatio = 0.6;
    TenantSpec ranker;
    ranker.name = "ranker";
    ranker.workload = WorkloadKind::PageRank;
    ranker.highRatio = 0.7;
    config.tenants = {ycsb, tpch, ranker};
    config.capacityRatio = 0.5;
    return config;
}

std::vector<std::uint64_t>
fingerprints(const ColocationTrialResult &trial)
{
    std::vector<std::uint64_t> fps;
    for (const TenantResult &t : trial.tenants)
        fps.push_back(tenantFingerprint(t));
    return fps;
}

TEST(Colocation, TrialReportsEveryTenant)
{
    // The audit cadence is cached per process; refresh around the
    // environment mutation so the override takes effect (and is gone
    // again) regardless of which tests ran before this one.
    setenv("PAGESIM_AUDIT_EVERY", "32", 1);
    detail::refreshAuditEveryOverrideCacheForTests();
    const ColocationConfig config = threeTenants();
    const ColocationTrialResult trial = runColocationTrial(config, 7);
    unsetenv("PAGESIM_AUDIT_EVERY");
    detail::refreshAuditEveryOverrideCacheForTests();

    ASSERT_EQ(trial.tenants.size(), 3u);
    EXPECT_EQ(trial.tenants[0].name, "ycsb");
    EXPECT_EQ(trial.tenants[1].name, "tpch");
    EXPECT_EQ(trial.tenants[2].name, "ranker");
    for (const TenantResult &t : trial.tenants) {
        EXPECT_GT(t.finishNs, 0u) << t.name;
        EXPECT_GT(t.memcgStats.minorFaults, 0u) << t.name;
        EXPECT_GT(t.memcgStats.peakUsage, 0u) << t.name;
        EXPECT_FALSE(t.threadFinishNs.empty()) << t.name;
    }
    // Half-capacity machine: someone must have been reclaimed from.
    std::uint64_t evictions = 0;
    for (const TenantResult &t : trial.tenants)
        evictions += t.memcgStats.evictions;
    EXPECT_GT(evictions, 0u);
    EXPECT_GT(trial.runtimeNs, 0u);
    // YCSB tenant reports request latency; PageRank does not.
    EXPECT_GT(trial.tenants[0].meanRequestNs, 0.0);
    EXPECT_EQ(trial.tenants[2].meanRequestNs, 0.0);
}

TEST(Colocation, RepeatRunsAreBitIdentical)
{
    const ColocationConfig config = threeTenants();
    const auto a = fingerprints(runColocationTrial(config, 42));
    const auto b = fingerprints(runColocationTrial(config, 42));
    EXPECT_EQ(a, b);
    // Distinct tenants measure distinct things.
    EXPECT_NE(a[0], a[1]);
    EXPECT_NE(a[1], a[2]);
    // And the seed actually matters.
    const auto c = fingerprints(runColocationTrial(config, 43));
    EXPECT_NE(a, c);
}

TEST(Colocation, ThreeTenantFingerprintsPinned)
{
    // Golden per-tenant fingerprints, so a refactor of the machine
    // build cannot move every run in lockstep unnoticed (the tests
    // above only compare runs with each other). Re-record only for a
    // deliberate model change.
    const auto fps = fingerprints(runColocationTrial(threeTenants(), 7));
    EXPECT_EQ(fps, (std::vector<std::uint64_t>{12810185064311438883ull,
                                               3549933159575256792ull,
                                               16497275574195911397ull}));
}

TEST(Colocation, RunColocationPoolMatchesDirectTrials)
{
    // The trial pool (however many host workers it uses) must produce
    // exactly the per-trial results of serial direct calls.
    ColocationConfig config = threeTenants();
    config.trials = 2;
    config.baseSeed = 99;
    const ColocationResult pooled = runColocation(config);
    ASSERT_EQ(pooled.trials.size(), 2u);
    for (std::size_t t = 0; t < pooled.trials.size(); ++t) {
        const std::uint64_t seed =
            config.baseSeed + 1000003ull * t;
        EXPECT_EQ(fingerprints(pooled.trials[t]),
                  fingerprints(runColocationTrial(config, seed)))
            << "trial " << t;
    }
}

TEST(Colocation, EmptyTenantListIsRefused)
{
    ColocationConfig config = threeTenants();
    config.tenants.clear();
    EXPECT_THROW(runColocationTrial(config, 7), std::invalid_argument);
    EXPECT_THROW(runColocation(config), std::invalid_argument);
}

TEST(Colocation, DuplicateTenantNamesAreRefused)
{
    // Same-named tenants would fork identical RNG streams and alias
    // each other's memcg.<name>.* metric probes.
    ColocationConfig config = threeTenants();
    config.tenants[2].name = config.tenants[0].name;
    EXPECT_THROW(runColocationTrial(config, 7), std::invalid_argument);
    EXPECT_THROW(runColocation(config), std::invalid_argument);
}

TEST(Colocation, UnnamedTenantBesideOthersIsRefused)
{
    // An empty name is reserved for the lone tenant of a
    // single-workload trial (the legacy RNG stream names).
    ColocationConfig config = threeTenants();
    config.tenants[1].name.clear();
    EXPECT_THROW(runColocationTrial(config, 7), std::invalid_argument);
    EXPECT_THROW(runColocation(config), std::invalid_argument);

    config.tenants = {config.tenants[1]};
    EXPECT_NO_THROW(runColocationTrial(config, 7));
}

TEST(Colocation, LabelNamesTenantsAndMachine)
{
    const ColocationConfig config = threeTenants();
    const std::string label = config.label();
    EXPECT_NE(label.find("ycsb"), std::string::npos);
    EXPECT_NE(label.find("tpch"), std::string::npos);
    EXPECT_NE(label.find("ranker"), std::string::npos);
    EXPECT_NE(label.find("50%"), std::string::npos);
}

} // namespace
} // namespace pagesim
