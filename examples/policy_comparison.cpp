/**
 * @file
 * Policy comparison: run every policy configuration on one workload
 * and print a detailed breakdown — runtime, faults, scan work, daemon
 * CPU, reclaim behavior. This is the "which policy should I use here?"
 * tool the paper argues you need per workload and per system.
 *
 * Usage: policy_comparison [workload] [ratio] [ssd|zram] [trials]
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
    if (std::strcmp(s, "pagerank") == 0)
        return WorkloadKind::PageRank;
    if (std::strcmp(s, "ycsb-a") == 0)
        return WorkloadKind::YcsbA;
    if (std::strcmp(s, "ycsb-b") == 0)
        return WorkloadKind::YcsbB;
    if (std::strcmp(s, "ycsb-c") == 0)
        return WorkloadKind::YcsbC;
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
    config.swap = (argc > 3 && std::strcmp(argv[3], "zram") == 0)
                      ? SwapKind::Zram
                      : SwapKind::Ssd;
    config.trials = argc > 4 ? std::atoi(argv[4]) : 3;

    std::printf("policy comparison: %s, %.0f%% capacity, %s swap, "
                "%u trials\n",
                workloadKindName(config.workload).c_str(),
                config.capacityRatio * 100,
                swapKindName(config.swap).c_str(),
                effectiveTrials(config.trials));

    TextTable table;
    table.header({"policy", "runtime", "cv", "faults", "evict", "2nd-ch",
                  "rmap", "ptes", "aging", "gen+", "genblk", "nbr-scan",
                  "aging-cpu", "kswapd-cpu", "stalls"});
    for (PolicyKind policy : allPolicyKinds()) {
        config.policy = policy;
        ExperimentResult res = runSweep({config}).front();
        const Summary rt = res.runtimeSummary();
        const Summary faults = res.faultSummary();
        double evict = 0, second = 0, rmap = 0, ptes = 0, aging = 0;
        double aging_cpu = 0, kswapd_cpu = 0, stalls = 0;
        double gen_creations = 0, gen_blocked = 0, nbr = 0;
        for (const auto &t : res.trials) {
            evict += t.kernel.evictions;
            second += t.policy.secondChances;
            rmap += t.policy.rmapWalks;
            ptes += t.policy.ptesScanned;
            aging += t.policy.agingPasses;
            aging_cpu += t.agingCpuNs;
            kswapd_cpu += t.kswapdCpuNs;
            stalls += t.kernel.allocStalls;
            gen_creations += t.mglru.genCreations;
            gen_blocked += t.mglru.genCreationBlocked;
            nbr += t.mglru.neighborScans;
        }
        const double n = static_cast<double>(res.trials.size());
        table.row({policyKindName(policy), fmtNanos(rt.mean()),
                   fmtPct(rt.cv() * 100),
                   fmtCount(static_cast<std::uint64_t>(faults.mean())),
                   fmtCount(static_cast<std::uint64_t>(evict / n)),
                   fmtCount(static_cast<std::uint64_t>(second / n)),
                   fmtCount(static_cast<std::uint64_t>(rmap / n)),
                   fmtCount(static_cast<std::uint64_t>(ptes / n)),
                   fmtCount(static_cast<std::uint64_t>(aging / n)),
                   fmtCount(static_cast<std::uint64_t>(gen_creations / n)),
                   fmtCount(static_cast<std::uint64_t>(gen_blocked / n)),
                   fmtCount(static_cast<std::uint64_t>(nbr / n)),
                   fmtNanos(aging_cpu / n), fmtNanos(kswapd_cpu / n),
                   fmtCount(static_cast<std::uint64_t>(stalls / n))});
    }
    std::fputs(table.render().c_str(), stdout);
    return 0;
}
