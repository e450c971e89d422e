/**
 * @file
 * Schema/sanity validator for the BENCH_core.json perf baseline.
 *
 * perf_core's output is consumed across PRs (the tracked baseline in
 * the repo root) and by CI (a freshly recorded file per run). A
 * malformed or insane baseline — missing sections, non-positive
 * speedups, a sweep that diverged — would silently disable the perf
 * trajectory guard, so CI validates the document right after
 * recording it.
 */

#ifndef PAGESIM_METRICS_BENCH_SCHEMA_HH
#define PAGESIM_METRICS_BENCH_SCHEMA_HH

#include <string>
#include <vector>

namespace pagesim
{

/**
 * Validate @p json_text as a BENCH_core.json document.
 *
 * Checks performed:
 *  - the text parses as one JSON object with schema_version >= 1;
 *  - every section perf_core emits is present with its fields
 *    (event_queue hold/churn, aging_scan patterns, trial,
 *    metrics_overhead, big_machine, sweep, checkpoint, serializer
 *    with its whole-image serializer.image);
 *  - throughputs, wall times, and speedups are finite and > 0;
 *  - sweep.identical_results, checkpoint.sweep.identical_results,
 *    big_machine.fingerprint_identity and
 *    serializer.image.round_trip_ok are true (the determinism and
 *    round-trip canaries).
 *
 * @return all problems found, one message each; empty means valid.
 */
std::vector<std::string> validateBenchCore(const std::string &json_text);

} // namespace pagesim

#endif // PAGESIM_METRICS_BENCH_SCHEMA_HH
