/**
 * @file
 * Tiered memory walkthrough: run a workload with a CXL-class slow
 * tier attached and watch pages migrate instead of swapping.
 *
 * Usage: tiered_memory [workload] [fastRatio] [slowRatio]
 *   workload:  tpch | pagerank | ycsb-a   (default pagerank)
 *   fastRatio: fast memory / footprint    (default 0.5)
 *   slowRatio: slow tier / footprint      (default 0.5)
 */

#include <cstdio>
#include <cstring>

#include "harness/sweep.hh"
#include "stats/table.hh"

using namespace pagesim;

int
main(int argc, char **argv)
{
    ExperimentConfig config;
    config.workload = WorkloadKind::PageRank;
    if (argc > 1 && std::strcmp(argv[1], "tpch") == 0)
        config.workload = WorkloadKind::Tpch;
    if (argc > 1 && std::strcmp(argv[1], "ycsb-a") == 0)
        config.workload = WorkloadKind::YcsbA;
    config.capacityRatio = argc > 2 ? std::atof(argv[2]) : 0.5;
    const double slow_ratio = argc > 3 ? std::atof(argv[3]) : 0.5;
    config.trials = 3;
    config.policy = PolicyKind::MgLru;
    config.swap = SwapKind::Ssd;

    std::printf("tiered memory: %s, fast=%.0f%%, slow tier=%.0f%% of "
                "footprint\n\n",
                workloadKindName(config.workload).c_str(),
                config.capacityRatio * 100, slow_ratio * 100);

    TextTable table;
    table.header({"configuration", "runtime", "major faults",
                  "demotions", "promotions", "slow hits"});
    for (int tiered = 0; tiered < 2; ++tiered) {
        config.slowTierRatio = tiered ? slow_ratio : 0.0;
        const ExperimentResult res = runSweep({config}).front();
        double dem = 0, pro = 0, hits = 0;
        for (const auto &t : res.trials) {
            dem += static_cast<double>(t.tier.demotions);
            pro += static_cast<double>(t.tier.promotions);
            hits += static_cast<double>(t.tier.slowHits);
        }
        const double n = static_cast<double>(res.trials.size());
        table.row({tiered ? "fast + slow tier" : "fast + swap only",
                   fmtNanos(res.runtimeSummary().mean()),
                   fmtCount(static_cast<std::uint64_t>(
                       res.faultSummary().mean())),
                   fmtCount(static_cast<std::uint64_t>(dem / n)),
                   fmtCount(static_cast<std::uint64_t>(pro / n)),
                   fmtCount(static_cast<std::uint64_t>(hits / n))});
    }
    std::fputs(table.render().c_str(), stdout);
    std::puts("\nDemotions replace swap-outs, slow hits replace major "
              "faults: page replacement becomes page PLACEMENT — the "
              "tiered-memory future the paper's introduction frames.");
    return 0;
}
