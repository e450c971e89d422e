/**
 * @file
 * Quickstart: run one workload under two replacement policies and
 * print what happened.
 *
 * Usage: quickstart [workload] [ratio]
 *   workload: tpch | pagerank | ycsb-a | ycsb-b | ycsb-c  (default tpch)
 *   ratio:    capacity-to-footprint ratio, e.g. 0.5       (default 0.5)
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "harness/sweep.hh"
#include "stats/table.hh"

using namespace pagesim;

namespace
{

WorkloadKind
parseWorkload(const char *s)
{
    if (std::strcmp(s, "tpch") == 0)
        return WorkloadKind::Tpch;
    if (std::strcmp(s, "pagerank") == 0)
        return WorkloadKind::PageRank;
    if (std::strcmp(s, "ycsb-a") == 0)
        return WorkloadKind::YcsbA;
    if (std::strcmp(s, "ycsb-b") == 0)
        return WorkloadKind::YcsbB;
    if (std::strcmp(s, "ycsb-c") == 0)
        return WorkloadKind::YcsbC;
    std::fprintf(stderr, "unknown workload '%s', using tpch\n", s);
    return WorkloadKind::Tpch;
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentConfig config;
    config.workload =
        argc > 1 ? parseWorkload(argv[1]) : WorkloadKind::Tpch;
    config.capacityRatio = argc > 2 ? std::atof(argv[2]) : 0.5;
    config.trials = 3;
    config.scale = ScalePreset::Small;

    std::printf("pagesim quickstart: %s at %.0f%% capacity, SSD swap\n",
                workloadKindName(config.workload).c_str(),
                config.capacityRatio * 100);

    TextTable table;
    table.header({"policy", "mean runtime", "mean faults", "rmap walks",
                  "PTEs scanned", "aging passes"});
    for (PolicyKind policy :
         {PolicyKind::Clock, PolicyKind::MgLru}) {
        config.policy = policy;
        ExperimentResult res = runSweep({config}).front();
        Summary rt = res.runtimeSummary();
        Summary faults = res.faultSummary();
        std::uint64_t rmap = 0, ptes = 0, aging = 0;
        for (const auto &t : res.trials) {
            rmap += t.policy.rmapWalks;
            ptes += t.policy.ptesScanned;
            aging += t.policy.agingPasses;
        }
        const auto n = res.trials.size();
        table.row({policyKindName(policy), fmtNanos(rt.mean()),
                   fmtCount(static_cast<std::uint64_t>(faults.mean())),
                   fmtCount(rmap / n), fmtCount(ptes / n),
                   fmtCount(aging / n)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::puts("Lower faults with MG-LRU at high pressure is the "
              "paper's Fig. 1 headline; try ratio 0.9 to watch the "
              "policies converge (Fig. 6).");
    return 0;
}
