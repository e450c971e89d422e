#include "common.hh"

#include <cstdio>

namespace pagesim::bench
{

ExperimentConfig
baseConfig()
{
    ExperimentConfig config;
    config.trials = kBenchTrials;
    config.scale = ScalePreset::Default;
    return config;
}

void
banner(const std::string &figure, const std::string &description,
       const ExperimentConfig &base)
{
    std::printf("=== %s: %s ===\n", figure.c_str(),
                description.c_str());
    std::printf("trials/cell: %u (set PAGESIM_TRIALS to override; "
                "paper used 25)\n\n",
                effectiveTrials(base.trials));
}

double
perfMetric(const ExperimentResult &res)
{
    switch (res.config.workload) {
      case WorkloadKind::YcsbA:
      case WorkloadKind::YcsbB:
      case WorkloadKind::YcsbC:
        return res.meanRequestNs();
      default:
        return res.runtimeSummary().mean();
    }
}

double
faultMetric(const ExperimentResult &res)
{
    return res.faultSummary().mean();
}

LinearFit
faultRuntimeFit(const ExperimentResult &res)
{
    std::vector<double> x, y;
    for (const auto &t : res.trials) {
        x.push_back(static_cast<double>(t.majorFaults));
        y.push_back(static_cast<double>(t.runtimeNs));
    }
    return linearRegression(x, y);
}

std::string
jointDistribution(const ExperimentResult &res)
{
    TextTable table;
    table.header({"trial", "runtime", "faults"});
    for (std::size_t i = 0; i < res.trials.size(); ++i) {
        table.row({std::to_string(i),
                   fmtNanos(static_cast<double>(
                       res.trials[i].runtimeNs)),
                   fmtCount(res.trials[i].majorFaults)});
    }
    const Summary rt = res.runtimeSummary();
    const LinearFit fit = faultRuntimeFit(res);
    std::string out = res.config.label() + "\n" + table.render();
    out += "  spread(max/min runtime): " +
           fmtX(rt.spreadFactor()) + "\n";
    out += "  faults->runtime r^2: " + fmtF(fit.r2, 3) +
           "  slope: " + fmtF(fit.slope / 1e6, 3) + " ms/fault\n";
    return out;
}

std::string
tailTable(
    const std::vector<std::pair<std::string, const ExperimentResult *>>
        &series)
{
    TextTable table;
    table.header({"series", "op", "p50", "p90", "p99", "p99.9",
                  "p99.99", "max"});
    for (const auto &[name, res] : series) {
        const LatencyHistogram read = res->mergedReadLatency();
        const LatencyHistogram write = res->mergedWriteLatency();
        if (read.count() > 0) {
            table.row({name, "read",
                       fmtNanos(static_cast<double>(read.p50())),
                       fmtNanos(static_cast<double>(read.p90())),
                       fmtNanos(static_cast<double>(read.p99())),
                       fmtNanos(static_cast<double>(read.p999())),
                       fmtNanos(static_cast<double>(read.p9999())),
                       fmtNanos(static_cast<double>(read.maxValue()))});
        }
        if (write.count() > 0) {
            table.row({name, "write",
                       fmtNanos(static_cast<double>(write.p50())),
                       fmtNanos(static_cast<double>(write.p90())),
                       fmtNanos(static_cast<double>(write.p99())),
                       fmtNanos(static_cast<double>(write.p999())),
                       fmtNanos(static_cast<double>(write.p9999())),
                       fmtNanos(static_cast<double>(write.maxValue()))});
        }
    }
    return table.render();
}

std::string
faultBoxRow(const ExperimentResult &res, double norm, TextTable &table,
            const std::string &label)
{
    const Summary faults = res.faultSummary();
    auto n = [norm](double v) {
        return norm > 0 ? fmtX(v / norm) : fmtF(v, 0);
    };
    table.row({label, n(faults.min()), n(faults.p25()),
               n(faults.median()), n(faults.p75()), n(faults.max())});
    return label;
}

} // namespace pagesim::bench
