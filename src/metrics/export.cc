#include "metrics/export.hh"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "stats/table.hh"

namespace pagesim
{

namespace
{

/** Append printf-formatted text to @p out. */
void
appendf(std::string &out, const char *fmt, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    const int n = std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    if (n > 0)
        out.append(buf, std::min<std::size_t>(n, sizeof(buf) - 1));
}

/** Sim ns -> trace µs (Chrome "ts"/"dur" unit), exact for integers. */
void
appendMicros(std::string &out, SimTime ns)
{
    // Emit as a fixed-point decimal instead of a double so 64-bit
    // nanosecond timestamps round-trip exactly.
    appendf(out, "%llu.%03llu",
            static_cast<unsigned long long>(ns / 1000),
            static_cast<unsigned long long>(ns % 1000));
}

void
appendDouble(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null";
        return;
    }
    appendf(out, "%.17g", v);
}

const char *
trackName(const MetricsSnapshot &s, std::uint32_t track)
{
    if (track < s.trackNames.size())
        return s.trackNames[track].c_str();
    return "?";
}

void
appendCompleteEvent(std::string &out, const char *name,
                    std::uint32_t tid, SimTime start, SimDuration dur,
                    Vpn vpn)
{
    appendf(out, "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
                 "\"ts\":",
            tid, name);
    appendMicros(out, start);
    out += ",\"dur\":";
    appendMicros(out, dur);
    appendf(out, ",\"args\":{\"vpn\":%llu}}",
            static_cast<unsigned long long>(vpn));
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                appendf(out, "\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

std::string
chromeTraceJson(const MetricsSnapshot &s)
{
    std::string out;
    out.reserve(1u << 16);
    out += "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    bool first = true;
    auto sep = [&] {
        if (!first)
            out += ",\n";
        first = false;
    };

    // Metadata: name the process and each actor track.
    sep();
    out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":"
           "\"process_name\",\"args\":{\"name\":\"pagesim\"}}";
    for (std::size_t tid = 0; tid < s.trackNames.size(); ++tid) {
        sep();
        appendf(out,
                "{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"name\":"
                "\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                tid, jsonEscape(s.trackNames[tid]).c_str());
    }

    // Fault spans: complete events, demand spans with phase children.
    for (const FaultSpan &span : s.spans) {
        sep();
        appendCompleteEvent(out, faultSpanKindName(span.kind),
                            span.track, span.start, span.total(),
                            span.vpn);
        if (span.kind == FaultSpanKind::DemandAsync) {
            // Children partition [start, end]; containment gives
            // nesting in the viewer.
            SimTime at = span.start;
            for (std::size_t i = 0; i < kFaultPhaseCount; ++i) {
                if (!span.phase[i])
                    continue;
                sep();
                appendCompleteEvent(
                    out,
                    faultPhaseName(static_cast<FaultPhase>(i)),
                    span.track, at, span.phase[i], span.vpn);
                at += span.phase[i];
            }
        }
    }

    // Instant events.
    for (const InstantEvent &ev : s.instants) {
        sep();
        appendf(out,
                "{\"ph\":\"i\",\"pid\":1,\"tid\":%u,\"name\":\"%s\","
                "\"s\":\"t\",\"ts\":",
                ev.track, instantKindName(ev.kind));
        appendMicros(out, ev.at);
        appendf(out, ",\"args\":{\"vpn\":%llu}}",
                static_cast<unsigned long long>(ev.vpn));
    }

    // Sampled probes as counter tracks.
    const SampleSeries &ts = s.timeseries;
    for (std::size_t col = 0; col < ts.names.size(); ++col) {
        const std::string name = jsonEscape(ts.names[col]);
        for (std::size_t row = 0; row < ts.rows(); ++row) {
            sep();
            appendf(out,
                    "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":"
                    "\"%s\",\"ts\":",
                    name.c_str());
            appendMicros(out, ts.at[row]);
            out += ",\"args\":{\"value\":";
            appendDouble(out, ts.columns[col][row]);
            out += "}}";
        }
    }

    out += "\n]}\n";
    return out;
}

std::string
timeseriesCsv(const SampleSeries &series)
{
    std::string out = "time_ns";
    for (const std::string &name : series.names) {
        out += ',';
        out += name;
    }
    out += '\n';
    for (std::size_t row = 0; row < series.rows(); ++row) {
        appendf(out, "%llu",
                static_cast<unsigned long long>(series.at[row]));
        for (std::size_t col = 0; col < series.columns.size(); ++col) {
            out += ',';
            const double v = series.columns[col][row];
            if (std::isfinite(v))
                appendf(out, "%.17g", v);
        }
        out += '\n';
    }
    return out;
}

std::string
metricsJsonl(const MetricsSnapshot &s)
{
    std::string out;
    out.reserve(1u << 14);
    appendf(out,
            "{\"type\":\"meta\",\"captured_at_ns\":%llu,"
            "\"spans_dropped\":%llu,\"instants_dropped\":%llu}\n",
            static_cast<unsigned long long>(s.capturedAt),
            static_cast<unsigned long long>(s.spansDropped),
            static_cast<unsigned long long>(s.instantsDropped));
    for (std::size_t i = 0; i < s.counterNames.size(); ++i) {
        appendf(out,
                "{\"type\":\"counter\",\"name\":\"%s\","
                "\"value\":%llu}\n",
                jsonEscape(s.counterNames[i]).c_str(),
                static_cast<unsigned long long>(s.counterValues[i]));
    }
    for (std::size_t i = 0; i < s.gaugeNames.size(); ++i) {
        appendf(out, "{\"type\":\"gauge\",\"name\":\"%s\",\"value\":",
                jsonEscape(s.gaugeNames[i]).c_str());
        appendDouble(out, s.gaugeValues[i]);
        out += "}\n";
    }
    for (std::size_t i = 0; i < s.histogramNames.size(); ++i) {
        const LatencyHistogram &h = s.histograms[i];
        appendf(out,
                "{\"type\":\"histogram\",\"name\":\"%s\","
                "\"count\":%llu",
                jsonEscape(s.histogramNames[i]).c_str(),
                static_cast<unsigned long long>(h.count()));
        if (h.count()) {
            appendf(out,
                    ",\"min\":%llu,\"max\":%llu,\"mean\":",
                    static_cast<unsigned long long>(h.minValue()),
                    static_cast<unsigned long long>(h.maxValue()));
            appendDouble(out, h.mean());
            appendf(out,
                    ",\"p50\":%llu,\"p90\":%llu,\"p99\":%llu,"
                    "\"p999\":%llu,\"p9999\":%llu",
                    static_cast<unsigned long long>(h.p50()),
                    static_cast<unsigned long long>(h.p90()),
                    static_cast<unsigned long long>(h.p99()),
                    static_cast<unsigned long long>(h.p999()),
                    static_cast<unsigned long long>(h.p9999()));
        }
        out += "}\n";
    }
    for (const FaultSpan &span : s.spans) {
        appendf(out,
                "{\"type\":\"span\",\"kind\":\"%s\",\"track\":\"%s\","
                "\"vpn\":%llu,\"start_ns\":%llu,\"end_ns\":%llu",
                faultSpanKindName(span.kind), trackName(s, span.track),
                static_cast<unsigned long long>(span.vpn),
                static_cast<unsigned long long>(span.start),
                static_cast<unsigned long long>(span.end));
        for (std::size_t i = 0; i < kFaultPhaseCount; ++i) {
            if (!span.phase[i])
                continue;
            std::string key =
                faultPhaseName(static_cast<FaultPhase>(i));
            std::replace(key.begin(), key.end(), '-', '_');
            appendf(out, ",\"%s_ns\":%llu", key.c_str(),
                    static_cast<unsigned long long>(span.phase[i]));
        }
        if (span.reclaimCpu)
            appendf(out, ",\"reclaim_cpu_ns\":%llu",
                    static_cast<unsigned long long>(span.reclaimCpu));
        if (span.deviceCpu)
            appendf(out, ",\"device_cpu_ns\":%llu",
                    static_cast<unsigned long long>(span.deviceCpu));
        out += "}\n";
    }
    return out;
}

std::string
asciiSparkline(const std::vector<double> &values)
{
    static const char *kLevels[] = {"▁", "▂", "▃", "▄",
                                    "▅", "▆", "▇", "█"};
    double max = 0.0;
    for (const double v : values) {
        if (std::isfinite(v))
            max = std::max(max, v);
    }
    std::string out;
    for (const double v : values) {
        std::size_t level = 0;
        if (max > 0.0 && std::isfinite(v) && v > 0.0)
            level = std::min<std::size_t>(
                static_cast<std::size_t>(v / max * 7.0), 7);
        out += kLevels[level];
    }
    return out;
}

std::string
metricsReport(const MetricsSnapshot &s)
{
    std::string out;
    out += "== metrics report (t=" + fmtNanos(double(s.capturedAt)) +
           ") ==\n";

    if (!s.counterNames.empty()) {
        TextTable t;
        t.header({"counter", "value"});
        for (std::size_t i = 0; i < s.counterNames.size(); ++i)
            t.row({s.counterNames[i], fmtCount(s.counterValues[i])});
        out += t.render();
        out += '\n';
    }

    bool anyHist = false;
    {
        TextTable t;
        t.header({"latency", "count", "p50", "p90", "p99", "p99.9",
                  "max", "mean"});
        for (std::size_t i = 0; i < s.histogramNames.size(); ++i) {
            const LatencyHistogram &h = s.histograms[i];
            if (!h.count())
                continue;
            anyHist = true;
            t.row({s.histogramNames[i], fmtCount(h.count()),
                   fmtNanos(double(h.p50())), fmtNanos(double(h.p90())),
                   fmtNanos(double(h.p99())),
                   fmtNanos(double(h.p999())),
                   fmtNanos(double(h.maxValue())), fmtNanos(h.mean())});
        }
        if (anyHist) {
            out += t.render();
            out += '\n';
        }
    }

    const SampleSeries &ts = s.timeseries;
    if (!ts.empty()) {
        appendf(out, "timeseries (%zu samples):\n", ts.rows());
        std::size_t width = 0;
        for (const std::string &n : ts.names)
            width = std::max(width, n.size());
        for (std::size_t col = 0; col < ts.names.size(); ++col) {
            double maxv = 0.0, last = 0.0;
            for (const double v : ts.columns[col]) {
                if (std::isfinite(v))
                    maxv = std::max(maxv, std::fabs(v));
            }
            if (!ts.columns[col].empty())
                last = ts.columns[col].back();
            appendf(out, "  %-*s ", static_cast<int>(width),
                    ts.names[col].c_str());
            out += asciiSparkline(ts.columns[col]);
            appendf(out, "  max %.4g last %.4g\n", maxv, last);
        }
    }

    if (s.spansDropped || s.instantsDropped) {
        appendf(out,
                "note: %llu spans / %llu instants beyond the retention "
                "cap were aggregated only\n",
                static_cast<unsigned long long>(s.spansDropped),
                static_cast<unsigned long long>(s.instantsDropped));
    }
    return out;
}

} // namespace pagesim
