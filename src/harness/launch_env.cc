#include "harness/launch_env.hh"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pagesim
{

ConfigError::ConfigError(std::string variable, std::string value,
                         std::string reason)
    : std::runtime_error(variable + "='" + value + "': " + reason),
      variable(std::move(variable)), value(std::move(value)),
      reason(std::move(reason))
{
}

namespace
{

/** Decimal digits only, nothing after them, within [lo, hi]. */
unsigned
parseCount(const char *name, const char *text, unsigned lo, unsigned hi)
{
    const char *end = text + std::strlen(text);
    unsigned n = 0;
    const auto [stop, ec] = std::from_chars(text, end, n);
    if (ec != std::errc{} || stop != end || n < lo || n > hi)
        throw ConfigError(name, text,
                          "expected a whole number from " +
                              std::to_string(lo) + " to " +
                              std::to_string(hi));
    return n;
}

MetricsMode
parseMetrics(const char *name, const std::string &text)
{
    if (text == "off" || text == "0")
        return MetricsMode::Off;
    if (text == "counters")
        return MetricsMode::Counters;
    if (text == "full" || text == "on" || text == "1")
        return MetricsMode::Full;
    throw ConfigError(name, text,
                      "expected off, counters or full (0 means off; "
                      "on and 1 mean full)");
}

LaunchEnv &
current()
{
    static LaunchEnv env = [] {
        try {
            return parseLaunchEnv(
                [](const char *name) { return std::getenv(name); });
        } catch (const ConfigError &e) {
            std::fprintf(stderr, "pagesim: error: %s\n", e.what());
            std::exit(2);
        }
    }();
    return env;
}

} // namespace

LaunchEnv
parseLaunchEnv(const std::function<const char *(const char *)> &lookup)
{
    const auto get = [&lookup](const char *name) -> const char * {
        const char *text = lookup(name);
        return text != nullptr && *text != '\0' ? text : nullptr;
    };
    LaunchEnv env;
    if (const char *t = get("PAGESIM_TRIALS"))
        env.trials = parseCount("PAGESIM_TRIALS", t, 1, UINT32_MAX);
    if (const char *t = get("PAGESIM_AUDIT_EVERY"))
        env.auditEvery = parseCount("PAGESIM_AUDIT_EVERY", t, 0, UINT32_MAX);
    if (const char *t = get("PAGESIM_WORKERS"))
        env.workers = parseCount("PAGESIM_WORKERS", t, 1, 1024);
    if (const char *t = get("PAGESIM_METRICS"))
        env.metrics = parseMetrics("PAGESIM_METRICS", t);
    if (const char *t = get("PAGESIM_METRICS_DIR"))
        env.metricsDir = t;
    if (const char *t = get("PAGESIM_CHECKPOINT_DIR"))
        env.checkpointDir = t;
    return env;
}

const LaunchEnv &
launchEnv()
{
    return current();
}

ScopedLaunchEnv::ScopedLaunchEnv(
    const std::function<void(LaunchEnv &)> &edit)
    : saved_(current())
{
    edit(current());
}

ScopedLaunchEnv::~ScopedLaunchEnv()
{
    current() = std::move(saved_);
}

unsigned
effectiveTrials(unsigned trials)
{
    return launchEnv().trials.value_or(trials);
}

MetricsConfig
effectiveMetricsConfig(const MetricsConfig &config)
{
    const LaunchEnv &env = launchEnv();
    MetricsConfig m = config;
    if (env.metrics) {
        m.mode = *env.metrics;
        if (m.artifactDir.empty())
            m.artifactDir = "pagesim_metrics";
    }
    if (!env.metricsDir.empty())
        m.artifactDir = env.metricsDir;
    return m;
}

} // namespace pagesim
