/**
 * @file
 * parseLaunchEnv: for every PAGESIM_* variable, the spellings it
 * accepts and the ones it refuses with a ConfigError that names the
 * variable and its value.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "harness/launch_env.hh"

namespace pagesim
{
namespace
{

/** parseLaunchEnv with @p vars set and nothing else. */
LaunchEnv
parseOnly(const std::map<std::string, std::string> &vars)
{
    return parseLaunchEnv([&vars](const char *name) -> const char * {
        const auto it = vars.find(name);
        return it == vars.end() ? nullptr : it->second.c_str();
    });
}

/** The field @p var sets, as text ("unset" for an empty optional). */
std::string
field(const LaunchEnv &env, const std::string &var)
{
    if (var == "PAGESIM_TRIALS")
        return env.trials ? std::to_string(*env.trials) : "unset";
    if (var == "PAGESIM_AUDIT_EVERY")
        return std::to_string(env.auditEvery);
    if (var == "PAGESIM_WORKERS")
        return std::to_string(env.workers);
    if (var == "PAGESIM_METRICS")
        return env.metrics ? metricsModeName(*env.metrics) : "unset";
    if (var == "PAGESIM_METRICS_DIR")
        return env.metricsDir;
    return env.checkpointDir;
}

TEST(LaunchEnv, ParsesEachVariableStrictly)
{
    struct Case
    {
        const char *var;
        const char *value;
        /** The parsed field, or nullptr when the value is refused. */
        const char *want;
    };
    const Case cases[] = {
        // Trials: 1..2^32-1; empty means unset.
        {"PAGESIM_TRIALS", "1", "1"},
        {"PAGESIM_TRIALS", "25", "25"},
        {"PAGESIM_TRIALS", "4294967295", "4294967295"},
        {"PAGESIM_TRIALS", "", "unset"},
        {"PAGESIM_TRIALS", "abc", nullptr},
        {"PAGESIM_TRIALS", "25x", nullptr},
        {"PAGESIM_TRIALS", "0", nullptr},
        {"PAGESIM_TRIALS", "-2", nullptr},
        {"PAGESIM_TRIALS", "+3", nullptr},
        {"PAGESIM_TRIALS", " 3", nullptr},
        {"PAGESIM_TRIALS", "4294967296", nullptr},
        {"PAGESIM_TRIALS", "99999999999999", nullptr},
        // Audit cadence: 0 is off.
        {"PAGESIM_AUDIT_EVERY", "0", "0"},
        {"PAGESIM_AUDIT_EVERY", "1", "1"},
        {"PAGESIM_AUDIT_EVERY", "64", "64"},
        {"PAGESIM_AUDIT_EVERY", "", "0"},
        {"PAGESIM_AUDIT_EVERY", "x", nullptr},
        {"PAGESIM_AUDIT_EVERY", "1x", nullptr},
        {"PAGESIM_AUDIT_EVERY", "-1", nullptr},
        {"PAGESIM_AUDIT_EVERY", "4294967296", nullptr},
        // Workers: 1..1024; 0 here means "not set".
        {"PAGESIM_WORKERS", "1", "1"},
        {"PAGESIM_WORKERS", "4", "4"},
        {"PAGESIM_WORKERS", "1024", "1024"},
        {"PAGESIM_WORKERS", "", "0"},
        {"PAGESIM_WORKERS", "zz", nullptr},
        {"PAGESIM_WORKERS", "4x", nullptr},
        {"PAGESIM_WORKERS", "0", nullptr},
        {"PAGESIM_WORKERS", "-3", nullptr},
        {"PAGESIM_WORKERS", "1025", nullptr},
        // Metrics: three names and their aliases, case-sensitive.
        {"PAGESIM_METRICS", "off", "off"},
        {"PAGESIM_METRICS", "0", "off"},
        {"PAGESIM_METRICS", "counters", "counters"},
        {"PAGESIM_METRICS", "full", "full"},
        {"PAGESIM_METRICS", "on", "full"},
        {"PAGESIM_METRICS", "1", "full"},
        {"PAGESIM_METRICS", "", "unset"},
        {"PAGESIM_METRICS", "bogus", nullptr},
        {"PAGESIM_METRICS", "Full", nullptr},
        {"PAGESIM_METRICS", "2", nullptr},
        {"PAGESIM_METRICS", "counters ", nullptr},
        // Directories: any path, taken as written.
        {"PAGESIM_METRICS_DIR", "out/fig1", "out/fig1"},
        {"PAGESIM_METRICS_DIR", "", ""},
        {"PAGESIM_CHECKPOINT_DIR", "/var/tmp/ckpt", "/var/tmp/ckpt"},
        {"PAGESIM_CHECKPOINT_DIR", "", ""},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(c.var) + "='" + c.value + "'");
        if (c.want != nullptr) {
            EXPECT_EQ(field(parseOnly({{c.var, c.value}}), c.var), c.want);
            continue;
        }
        try {
            parseOnly({{c.var, c.value}});
            ADD_FAILURE() << "accepted";
        } catch (const ConfigError &e) {
            EXPECT_EQ(e.variable, c.var);
            EXPECT_EQ(e.value, c.value);
            EXPECT_FALSE(e.reason.empty());
            EXPECT_EQ(std::string(e.what()).rfind(
                          std::string(c.var) + "='" + c.value + "': ", 0),
                      0u)
                << e.what();
        }
    }
}

TEST(LaunchEnv, NothingSetMeansNoOverride)
{
    const LaunchEnv env = parseOnly({});
    EXPECT_FALSE(env.trials);
    EXPECT_EQ(env.auditEvery, 0u);
    EXPECT_EQ(env.workers, 0u);
    EXPECT_FALSE(env.metrics);
    EXPECT_TRUE(env.metricsDir.empty());
    EXPECT_TRUE(env.checkpointDir.empty());
}

TEST(LaunchEnv, ScopeRestoresTheLaunchSetting)
{
    const unsigned outer = launchEnv().auditEvery;
    {
        const ScopedLaunchEnv inner(
            [outer](LaunchEnv &env) { env.auditEvery = outer + 7; });
        EXPECT_EQ(launchEnv().auditEvery, outer + 7);
    }
    EXPECT_EQ(launchEnv().auditEvery, outer);
}

} // namespace
} // namespace pagesim
