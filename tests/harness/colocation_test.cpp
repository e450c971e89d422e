/**
 * @file
 * Colocation scenario tests: per-tenant results exist and are
 * deterministic — bit-identical across repeated runs and the trial
 * pool, and pinned — with the full cross-layer auditor (memcg
 * invariant family included) sampling reclaim batches; tenant lists
 * the rig cannot tell apart are refused. A grid cell is the
 * one-tenant case of the same trial path, label and result.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "harness/sweep.hh"
#include "harness/trial_rig.hh"

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
    // The MG-LRU YCSB tenant reports its MG-LRU counters and its
    // measurement window; TPC-H measures its whole run.
    const TenantResult &ycsb = trial.tenants[0];
    EXPECT_GT(ycsb.mglru.genCreations, 0u);
    EXPECT_GT(ycsb.mglru.bloomInsertions, 0u);
    EXPECT_GT(ycsb.measureStartNs, 0u);
    EXPECT_LT(ycsb.measureStartNs, ycsb.finishNs);
    EXPECT_LE(ycsb.faultsAtMeasureStart, trial.kernel.majorFaults);
    EXPECT_EQ(trial.tenants[1].measureStartNs, 0u);
    EXPECT_EQ(trial.tenants[1].faultsAtMeasureStart, 0u);
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
    // The one pooled runner (however many host workers it uses) must
    // produce exactly the per-trial results of serial direct calls.
    // Four scenarios that differ only in baseSeed give the pool at
    // least four tasks whatever PAGESIM_TRIALS says, so the 4-worker
    // arm runs two or more trials at once.
    std::vector<ColocationConfig> scenarios;
    std::vector<std::vector<std::vector<std::uint64_t>>> direct;
    for (const std::uint64_t base : {99u, 199u, 299u, 399u}) {
        ColocationConfig config = threeTenants();
        config.trials = 1;
        config.baseSeed = base;
        scenarios.push_back(config);
        direct.emplace_back();
        for (unsigned t = 0; t < effectiveTrials(1); ++t)
            direct.back().push_back(fingerprints(
                runColocationTrial(config, base + 1000003ull * t)));
    }
    for (const unsigned workers : {1u, 4u}) {
        const std::vector<ColocationResult> pooled =
            runSweep(scenarios, SweepOptions{workers});
        ASSERT_EQ(pooled.size(), scenarios.size());
        for (std::size_t s = 0; s < pooled.size(); ++s) {
            ASSERT_EQ(pooled[s].trials.size(), direct[s].size());
            for (std::size_t t = 0; t < pooled[s].trials.size(); ++t)
                EXPECT_EQ(fingerprints(pooled[s].trials[t]), direct[s][t])
                    << "workers " << workers << " scenario " << s
                    << " trial " << t;
        }
    }
}

TEST(Colocation, EmptyTenantListIsRefused)
{
    ColocationConfig config = threeTenants();
    config.tenants.clear();
    EXPECT_THROW(runColocationTrial(config, 7), std::invalid_argument);
    EXPECT_THROW(runSweep({config}), std::invalid_argument);
}

TEST(Colocation, DuplicateTenantNamesAreRefused)
{
    // Same-named tenants would fork identical RNG streams and alias
    // each other's memcg.<name>.* metric probes.
    ColocationConfig config = threeTenants();
    config.tenants[2].name = config.tenants[0].name;
    EXPECT_THROW(runColocationTrial(config, 7), std::invalid_argument);
    EXPECT_THROW(runSweep({config}), std::invalid_argument);
}

TEST(Colocation, UnnamedTenantBesideOthersIsRefused)
{
    // An empty name is reserved for the lone tenant of a
    // single-workload trial (the legacy RNG stream names).
    ColocationConfig config = threeTenants();
    config.tenants[1].name.clear();
    EXPECT_THROW(runColocationTrial(config, 7), std::invalid_argument);
    EXPECT_THROW(runSweep({config}), std::invalid_argument);

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

TEST(Colocation, OneTenantScenarioLabelIsItsCellLabel)
{
    ExperimentConfig cell;
    cell.workload = WorkloadKind::PageRank;
    cell.policy = PolicyKind::ScanAll;
    cell.swap = SwapKind::Zram;
    cell.capacityRatio = 0.75;
    EXPECT_EQ(TrialRig::scenario(cell).label(),
              "PageRank/Scan-All/ZRAM/75%");
    EXPECT_EQ(TrialRig::scenario(ExperimentConfig{}).label(),
              "TPC-H/MG-LRU/SSD/50%");
    EXPECT_EQ(ExperimentConfig{}.label(), "TPC-H/MG-LRU/SSD/50%");
    // A named lone tenant is a scenario, not a cell.
    ColocationConfig named = TrialRig::scenario(cell);
    named.tenants[0].name = "pr";
    EXPECT_EQ(named.label(), "colo[pr]/Scan-All/ZRAM/75%");
}

/** @p cell's trial read from tenant 0 and the machine totals by hand. */
void
expectCellProjection(const ExperimentConfig &cell, std::uint64_t seed)
{
    const TrialResult r = runTrial(cell, seed);
    // runColocationTrial(TrialRig::scenario(cell), seed), spelled out
    // to keep the finished machine's clock.
    const std::unique_ptr<ColocationRig> rig =
        runRig(TrialRig::scenario(cell), seed);
    const ColocationTrialResult c = rig->collect();
    ASSERT_EQ(c.tenants.size(), 1u);
    const TenantResult &t = c.tenants[0];
    const std::string at =
        cell.label() + (cell.slowTierRatio > 0 ? " +slow tier" : "");
    // The run ends with its last thread, so the slowest thread's finish
    // is the machine clock a lone workload's runtime was read from.
    EXPECT_EQ(c.runtimeNs, rig->sim.now()) << at;
    EXPECT_EQ(r.runtimeNs, c.runtimeNs - t.measureStartNs) << at;
    EXPECT_EQ(r.majorFaults,
              c.kernel.majorFaults - t.faultsAtMeasureStart)
        << at;
    EXPECT_EQ(r.kernel.majorFaults, c.kernel.majorFaults) << at;
    EXPECT_EQ(r.kernel.minorFaults, c.kernel.minorFaults) << at;
    EXPECT_EQ(r.kernel.evictions, c.kernel.evictions) << at;
    EXPECT_EQ(r.policy.ptesScanned, t.policy.ptesScanned) << at;
    EXPECT_EQ(r.policy.evicted, t.policy.evicted) << at;
    EXPECT_EQ(r.swap.reads, c.swap.reads) << at;
    EXPECT_EQ(r.swap.writes, c.swap.writes) << at;
    EXPECT_EQ(r.mglru.genCreations, t.mglru.genCreations) << at;
    EXPECT_EQ(r.mglru.bloomInsertions, t.mglru.bloomInsertions) << at;
    EXPECT_EQ(r.tier.demotions, c.tier.demotions) << at;
    EXPECT_EQ(r.tier.slowHits, c.tier.slowHits) << at;
    EXPECT_EQ(r.threadFinishNs, t.threadFinishNs) << at;
    EXPECT_EQ(r.threadBlockedFaults, t.threadBlockedFaults) << at;
    EXPECT_EQ(r.readLatency.count(), t.readLatency.count()) << at;
    EXPECT_EQ(r.writeLatency.count(), t.writeLatency.count()) << at;
    EXPECT_EQ(r.meanRequestNs, t.meanRequestNs) << at;
    EXPECT_EQ(r.kswapdCpuNs, c.kswapdCpuNs) << at;
    EXPECT_EQ(r.totalTouches, c.totalTouches) << at;
}

TEST(Colocation, RunTrialIsTheTenantZeroProjection)
{
    // Every workload x {Clock, MG-LRU} x {SSD, ZRAM}, half of the cells
    // with a slow tier: each workload, policy and swap medium runs both
    // with and without one.
    ExperimentConfig cell;
    cell.scale = ScalePreset::Small;
    unsigned parity = 0;
    for (const WorkloadKind wk : allWorkloadKinds()) {
        cell.workload = wk;
        ++parity;
        for (const PolicyKind pk : {PolicyKind::Clock, PolicyKind::MgLru}) {
            cell.policy = pk;
            ++parity;
            for (const SwapKind sk : {SwapKind::Ssd, SwapKind::Zram}) {
                cell.swap = sk;
                cell.slowTierRatio = ++parity % 2 != 0 ? 0.25 : 0.0;
                expectCellProjection(cell, 7);
            }
        }
    }
}

} // namespace
} // namespace pagesim
