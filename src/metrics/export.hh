/**
 * @file
 * MetricsSnapshot exporters.
 *
 *  - chromeTraceJson(): Chrome trace-event JSON (the format Perfetto
 *    and chrome://tracing load). Fault spans become "X" complete
 *    events — demand spans with nested swap-queue-wait/device-service
 *    child slices — instants become "i" events, and every timeseries
 *    probe becomes a "C" counter track. Track ids ("tid") are the
 *    collector's actor tracks, named via "M" metadata events.
 *  - timeseriesCsv(): the sampler series, one row per sample.
 *  - metricsJsonl(): one JSON object per line — meta, counters,
 *    gauges, histogram summaries, span records — for ad-hoc jq/pandas
 *    consumption.
 *  - metricsReport(): human terminal report (TextTable + sparklines).
 *
 * All exporters are pure snapshot -> string; callers own file I/O.
 */

#ifndef PAGESIM_METRICS_EXPORT_HH
#define PAGESIM_METRICS_EXPORT_HH

#include <string>
#include <vector>

#include "metrics/collector.hh"

namespace pagesim
{

/** Chrome trace-event JSON ("traceEvents" array form). */
std::string chromeTraceJson(const MetricsSnapshot &snapshot);

/** "time_ns,<probe>,..." CSV of the sampled timeseries. */
std::string timeseriesCsv(const SampleSeries &series);

/** One JSON object per line: meta, counters, gauges, hists, spans. */
std::string metricsJsonl(const MetricsSnapshot &snapshot);

/**
 * One glyph per value ("▁▂▅█…"), the largest at the full block; zero,
 * negative and non-finite values at the lowest.
 */
std::string asciiSparkline(const std::vector<double> &values);

/** Terminal report: tables of counters/latencies + probe sparklines. */
std::string metricsReport(const MetricsSnapshot &snapshot);

/** JSON string escaping (quotes not included). */
std::string jsonEscape(const std::string &s);

} // namespace pagesim

#endif // PAGESIM_METRICS_EXPORT_HH
