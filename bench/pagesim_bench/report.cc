#include "report.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "metrics/export.hh"
#include "metrics/json.hh"

namespace pagesim::e2e
{

const char *
manifestPath()
{
    return PAGESIM_BENCH_MANIFEST;
}

namespace
{

bool
parseSpecs(const JsonValue &root, const char *key, bool bounded,
           std::vector<MetricSpec> &out, std::string &error)
{
    const JsonValue *list = root.find(key);
    if (list == nullptr || !list->isArray()) {
        error = std::string("no \"") + key + "\" list";
        return false;
    }
    for (const JsonValue &item : list->items) {
        const JsonValue *name = item.find("name");
        const JsonValue *unit = item.find("unit");
        const JsonValue *better = item.find("better");
        const JsonValue *bound = item.find("bound");
        if (name == nullptr || !name->isString() || unit == nullptr ||
            !unit->isString() || better == nullptr ||
            !better->isString() ||
            (bounded && (bound == nullptr || !bound->isNumber()))) {
            error = std::string("malformed entry in \"") + key + "\"";
            return false;
        }
        out.push_back({name->str, unit->str, better->str,
                       bounded ? bound->number : 0.0});
    }
    return true;
}

/** A JSON number with every digit the double carries. */
std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[32];
    if (v == std::floor(v) && std::fabs(v) < 9.0e15)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else
        std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

bool
loadManifest(const std::string &path, Manifest &out, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read " + path;
        return false;
    }
    std::stringstream text;
    text << in.rdbuf();
    JsonValue root;
    if (!jsonParse(text.str(), root, error) ||
        !parseSpecs(root, "end_to_end", true, out.endToEnd, error) ||
        !parseSpecs(root, "per_layer", false, out.perLayer, error)) {
        error = path + ": " + error;
        return false;
    }
    if (const JsonValue *list = root.find("workloads")) {
        for (const JsonValue &item : list->items)
            if (const JsonValue *name = item.find("name"))
                out.workloads.push_back(name->str);
    }
    return true;
}

bool
report(const std::vector<MetricSpec> &specs, const std::string &workload,
       const Measurements &values, const RunSummary &summary,
       const std::string &json_path)
{
    for (const MetricSpec &spec : specs) {
        if (!values.count(spec.name)) {
            std::fprintf(stderr,
                         "pagesim_bench: error: metric %s was not "
                         "measured on %s\n",
                         spec.name.c_str(), workload.c_str());
            return false;
        }
    }

    std::printf("%s: %llu trials attempted, %llu failed%s\n",
                workload.c_str(),
                static_cast<unsigned long long>(summary.attempted),
                static_cast<unsigned long long>(summary.failed),
                summary.correct ? "" : " -- INCORRECT");
    for (const MetricSpec &spec : specs) {
        const Measured &m = values.at(spec.name);
        std::printf("  %-32s %16.6g %-8s (%llu samples)\n",
                    spec.name.c_str(), m.value, spec.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
    }

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        out << "[";
        const char *sep = "\n";
        for (const MetricSpec &spec : specs) {
            const Measured &m = values.at(spec.name);
            out << sep << "  {\"name\": \"" << jsonEscape(spec.name)
                << "\", \"unit\": \"" << jsonEscape(spec.unit)
                << "\", \"workload\": \"" << jsonEscape(workload)
                << "\", \"value\": " << number(m.value)
                << ", \"samples\": " << m.samples << ", \"bound\": "
                << (spec.bound > 0.0 ? number(spec.bound) : "null")
                << "}";
            sep = ",\n";
        }
        out << "\n]\n";
        out.close();
        if (!out) {
            std::fprintf(stderr, "pagesim_bench: error: cannot write %s\n",
                         json_path.c_str());
            return false;
        }
    }

    std::string line = std::string("{\"correct\": ") +
                       (summary.correct ? "true" : "false") +
                       ", \"attempted\": " +
                       std::to_string(summary.attempted) +
                       ", \"failed\": " + std::to_string(summary.failed) +
                       ", \"metrics\": {";
    const char *sep = "";
    for (const MetricSpec &spec : specs) {
        line += sep;
        line += "\"" + jsonEscape(spec.name) + "\": {\"value\": " +
                number(values.at(spec.name).value) + ", \"unit\": \"" +
                jsonEscape(spec.unit) + "\"}";
        sep = ", ";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
    return true;
}

double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void
quartiles(std::vector<double> v, double &q1, double &q3)
{
    // statistics.quantiles(n=4, method="exclusive"), clamped the same
    // way for short inputs.
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    if (ld < 2) {
        q1 = q3 = ld == 1 ? v[0] : 0.0;
        return;
    }
    const auto at = [&](long i) {
        const long m = ld + 1;
        long j = i * m / 4;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * 4;
        return (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
    };
    q1 = at(1);
    q3 = at(3);
}

} // namespace pagesim::e2e
