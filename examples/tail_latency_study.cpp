/**
 * @file
 * Tail-latency study: the paper's central practical question — which
 * replacement policy should a latency-sensitive service run on, and
 * does the answer survive a change of swap medium?
 *
 * Runs one YCSB mix under Clock and MG-LRU on both SSD and ZRAM swap
 * and prints the full latency ladder plus the policy recommendation
 * the data implies, demonstrating the paper's conclusion that the
 * answer flips with the system configuration.
 *
 * Usage: tail_latency_study [a|b|c] [ratio]
 */

#include <cstdio>
#include <cstring>

#include "harness/sweep.hh"
#include "kv/ycsb_workload.hh"
#include "stats/table.hh"

using namespace pagesim;

int
main(int argc, char **argv)
{
    YcsbMix mix = YcsbMix::A;
    if (argc > 1 && argv[1][0] == 'b')
        mix = YcsbMix::B;
    if (argc > 1 && argv[1][0] == 'c')
        mix = YcsbMix::C;
    ExperimentConfig config;
    config.workload = mix == YcsbMix::A   ? WorkloadKind::YcsbA
                      : mix == YcsbMix::B ? WorkloadKind::YcsbB
                                          : WorkloadKind::YcsbC;
    config.capacityRatio = argc > 2 ? std::atof(argv[2]) : 0.5;
    config.trials = 3;

    std::printf("tail latency study: %s at %.0f%% capacity\n\n",
                workloadKindName(config.workload).c_str(),
                config.capacityRatio * 100);

    struct Cell
    {
        SwapKind swap;
        PolicyKind policy;
        LatencyHistogram read;
        double meanNs;
    };
    std::vector<Cell> cells;
    for (SwapKind swap : {SwapKind::Ssd, SwapKind::Zram}) {
        for (PolicyKind policy :
             {PolicyKind::Clock, PolicyKind::MgLru}) {
            config.swap = swap;
            config.policy = policy;
            const ExperimentResult res = runSweep({config}).front();
            cells.push_back(Cell{swap, policy,
                                 res.mergedReadLatency(),
                                 res.meanRequestNs()});
        }
    }

    TextTable table;
    table.header({"swap", "policy", "mean", "p50", "p99", "p99.9",
                  "p99.99"});
    for (const Cell &c : cells) {
        table.row({swapKindName(c.swap), policyKindName(c.policy),
                   fmtNanos(c.meanNs),
                   fmtNanos(static_cast<double>(c.read.p50())),
                   fmtNanos(static_cast<double>(c.read.p99())),
                   fmtNanos(static_cast<double>(c.read.p999())),
                   fmtNanos(static_cast<double>(c.read.p9999()))});
    }
    std::fputs(table.render().c_str(), stdout);

    // The "which policy?" verdict per medium, by deep-tail readings.
    for (int s = 0; s < 2; ++s) {
        const Cell &clock = cells[s * 2];
        const Cell &mglru = cells[s * 2 + 1];
        const bool clock_tail_wins =
            clock.read.p9999() <= mglru.read.p9999();
        const bool clock_mean_wins = clock.meanNs <= mglru.meanNs;
        std::printf("%s: mean favors %s, p99.99 favors %s%s\n",
                    swapKindName(clock.swap).c_str(),
                    clock_mean_wins ? "Clock" : "MG-LRU",
                    clock_tail_wins ? "Clock" : "MG-LRU",
                    clock_mean_wins == clock_tail_wins
                        ? ""
                        : "  <-- throughput/tail tradeoff");
    }
    std::puts("\nThe paper's point: there is no single answer — the "
              "right policy depends on the workload mix, the tail "
              "percentile you sell, and the swap medium.");
    return 0;
}
