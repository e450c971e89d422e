/**
 * @file
 * The launch environment: the six PAGESIM_* variables, parsed once per
 * process and strictly (EXPERIMENTS.md tables their accepted values).
 * Unset and empty both mean "no override"; anything else outside the
 * accepted set is a ConfigError naming the variable, which launchEnv()
 * reports before exiting with status 2.
 */

#ifndef PAGESIM_HARNESS_LAUNCH_ENV_HH
#define PAGESIM_HARNESS_LAUNCH_ENV_HH

#include <functional>
#include <optional>
#include <stdexcept>
#include <string>

#include "metrics/collector.hh"

namespace pagesim
{

/** One field per variable; the defaults are the unset values. */
struct LaunchEnv
{
    /** PAGESIM_TRIALS: replaces every config's trial count. */
    std::optional<unsigned> trials;
    /** PAGESIM_AUDIT_EVERY: every trial's MmConfig::auditEvery. */
    unsigned auditEvery = 0;
    /** PAGESIM_WORKERS: runSweep's pool width when SweepOptions leaves
     *  it 0 (0 here: one per hardware thread). */
    unsigned workers = 0;
    /** PAGESIM_METRICS: replaces every config's metrics mode. */
    std::optional<MetricsMode> metrics;
    /** PAGESIM_METRICS_DIR: replaces every config's artifactDir. */
    std::string metricsDir;
    /** PAGESIM_CHECKPOINT_DIR: CheckpointCache's disk store. */
    std::string checkpointDir;
};

/** A malformed variable; what() is "<VAR>='<value>': <reason>". */
struct ConfigError : std::runtime_error
{
    ConfigError(std::string variable, std::string value,
                std::string reason);

    std::string variable;
    std::string value;
    std::string reason;
};

/**
 * Parse every variable through @p lookup (a variable's value, or null
 * when unset). @throws ConfigError for the first malformed one.
 */
LaunchEnv
parseLaunchEnv(const std::function<const char *(const char *)> &lookup);

/**
 * The process's launch environment, parsed from the real one on first
 * use. A malformed variable prints "pagesim: error: <what()>" and exits
 * with status 2, so the first call belongs on the launching thread:
 * runSweep and runRig make it before any trial starts.
 */
const LaunchEnv &launchEnv();

/**
 * The test seam: until scope exit, launchEnv() is a copy of itself
 * with @p edit applied. Install and drop it while no trial runs.
 */
class ScopedLaunchEnv
{
  public:
    explicit ScopedLaunchEnv(const std::function<void(LaunchEnv &)> &edit);
    ~ScopedLaunchEnv();
    ScopedLaunchEnv(const ScopedLaunchEnv &) = delete;
    ScopedLaunchEnv &operator=(const ScopedLaunchEnv &) = delete;

  private:
    LaunchEnv saved_;
};

/** @p trials, or PAGESIM_TRIALS when set. */
unsigned effectiveTrials(unsigned trials);

/**
 * @p config as trials run it, after PAGESIM_METRICS and
 * PAGESIM_METRICS_DIR. Metrics enabled by the environment without a
 * directory write their artifacts to "pagesim_metrics/".
 */
MetricsConfig effectiveMetricsConfig(const MetricsConfig &config);

} // namespace pagesim

#endif // PAGESIM_HARNESS_LAUNCH_ENV_HH
