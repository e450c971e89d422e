/**
 * @file
 * Metric manifest and result reporting.
 *
 * BENCHMARK.json at the repository root is the one list of metric
 * names, units, directions and bounds; this binary only computes the
 * values. A run prints every metric it owes by name, unit and sample
 * count, optionally writes them as JSON records (--json), and ends its
 * standard output with one result object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 */

#ifndef PAGESIM_BENCH_REPORT_HH
#define PAGESIM_BENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pagesim::e2e
{

/** One metric as BENCHMARK.json declares it. */
struct MetricSpec
{
    std::string name;
    std::string unit;
    /** "lower" or "higher". */
    std::string better;
    /** Allowed worsening as a share of the median (end-to-end only). */
    double bound = 0.0;
};

struct Manifest
{
    std::vector<MetricSpec> endToEnd;
    std::vector<MetricSpec> perLayer;
    std::vector<std::string> workloads;
};

/** Path of BENCHMARK.json in the source tree. */
const char *manifestPath();

bool loadManifest(const std::string &path, Manifest &out,
                  std::string &error);

/** One measured value and how many samples it summarizes. */
struct Measured
{
    double value = 0.0;
    std::uint64_t samples = 0;
};

using Measurements = std::map<std::string, Measured>;

/** Trial accounting for the result object. */
struct RunSummary
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * Print every metric of @p specs, write the --json records when
 * @p json_path is non-empty, and print the result object last.
 * @return false (after printing an error) when a metric of @p specs
 *         was not measured or the records could not be written
 */
bool report(const std::vector<MetricSpec> &specs,
            const std::string &workload, const Measurements &values,
            const RunSummary &summary, const std::string &json_path);

/**
 * Linear-interpolated quantile @p q in [0, 1] of @p v (sorted in
 * place); 0 when empty.
 */
double quantile(std::vector<double> &v, double q);

/** First and third quartiles, as Python's statistics.quantiles(n=4). */
void quartiles(std::vector<double> v, double &q1, double &q3);

} // namespace pagesim::e2e

#endif // PAGESIM_BENCH_REPORT_HH
