/**
 * @file
 * Grid search: the paper's methodology as a reusable tool.
 *
 * Sweeps {workload} x {policy} x {capacity ratio} x {swap medium} and
 * emits one CSV row per cell with the metrics every figure in the
 * paper is built from — mean/cv/min/max runtime, fault statistics,
 * scan counters, tail latencies. Pipe it into your plotting tool of
 * choice to draw the full paper (or your own variant of it).
 *
 * Usage:
 *   grid_search                    # the paper's full grid
 *   grid_search quick              # 2 trials, 50% ratio only
 * Environment: PAGESIM_TRIALS overrides trials per cell.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "harness/sweep.hh"

using namespace pagesim;

namespace
{

std::string
csvField(const std::string &s)
{
    return s; // no commas appear in our identifiers
}

void
emitRow(const ExperimentResult &res)
{
    const ExperimentConfig &cfg = res.config;
    const Summary rt = res.runtimeSummary();
    const Summary faults = res.faultSummary();
    double ptes = 0, rmap = 0, aging = 0, evict = 0, stalls = 0;
    double skew = 0;
    for (const auto &t : res.trials) {
        ptes += static_cast<double>(t.policy.ptesScanned);
        rmap += static_cast<double>(t.policy.rmapWalks);
        aging += static_cast<double>(t.policy.agingPasses);
        evict += static_cast<double>(t.kernel.evictions);
        stalls += static_cast<double>(t.kernel.allocStalls);
        skew += t.faultSkew();
    }
    const double n = static_cast<double>(res.trials.size());
    const LatencyHistogram read = res.mergedReadLatency();
    const LatencyHistogram write = res.mergedWriteLatency();
    std::printf(
        "%s,%s,%s,%.2f,%zu,"
        "%.0f,%.4f,%.0f,%.0f,"
        "%.0f,%.4f,%.0f,%.0f,"
        "%.0f,%.0f,%.0f,%.0f,%.0f,%.3f,"
        "%llu,%llu,%llu,%llu\n",
        csvField(workloadKindName(cfg.workload)).c_str(),
        csvField(policyKindName(cfg.policy)).c_str(),
        csvField(swapKindName(cfg.swap)).c_str(), cfg.capacityRatio,
        res.trials.size(),
        rt.mean(), rt.cv(), rt.min(), rt.max(),
        faults.mean(), faults.cv(), faults.min(), faults.max(),
        ptes / n, rmap / n, aging / n, evict / n, stalls / n,
        skew / n,
        static_cast<unsigned long long>(read.p50()),
        static_cast<unsigned long long>(read.p9999()),
        static_cast<unsigned long long>(write.p50()),
        static_cast<unsigned long long>(write.p9999()));
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = argc > 1 && std::strcmp(argv[1], "quick") == 0;

    std::printf(
        "workload,policy,swap,ratio,trials,"
        "runtime_mean_ns,runtime_cv,runtime_min_ns,runtime_max_ns,"
        "faults_mean,faults_cv,faults_min,faults_max,"
        "ptes_scanned,rmap_walks,aging_passes,evictions,stalls,"
        "fault_skew,"
        "read_p50_ns,read_p9999_ns,write_p50_ns,write_p9999_ns\n");

    ExperimentConfig cfg;
    cfg.trials = quick ? 2 : 5;
    const std::vector<double> ratios =
        quick ? std::vector<double>{0.5}
              : std::vector<double>{0.5, 0.75, 0.9};
    for (WorkloadKind wk : allWorkloadKinds()) {
        for (PolicyKind pk : allPolicyKinds()) {
            for (SwapKind sk : {SwapKind::Ssd, SwapKind::Zram}) {
                for (double ratio : ratios) {
                    cfg.workload = wk;
                    cfg.policy = pk;
                    cfg.swap = sk;
                    cfg.capacityRatio = ratio;
                    emitRow(runSweep({cfg}).front());
                    std::fflush(stdout);
                }
            }
        }
    }
    return 0;
}
