/**
 * @file
 * --repeat: the spread of every end-to-end metric over fresh processes.
 */

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <map>

#include "metrics/json.hh"
#include "modes.hh"

extern char **environ;

namespace pagesim::e2e
{

namespace
{

/**
 * Run this binary with @p args, capturing its standard output.
 * @return false when it could not start or exited non-zero
 */
bool
runChild(const std::vector<std::string> &args, std::string &out)
{
    int fds[2];
    if (pipe(fds) != 0)
        return false;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    std::vector<char *> argv;
    for (const std::string &a : args)
        argv.push_back(const_cast<char *>(a.c_str()));
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    if (rc != 0) {
        close(fds[0]);
        return false;
    }
    char buf[4096];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0)
        out.append(buf, static_cast<std::size_t>(n));
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/** The result object: the last non-empty line of a run's output. */
bool
parseResult(const std::string &out, JsonValue &result)
{
    std::size_t end = out.find_last_not_of('\n');
    if (end == std::string::npos)
        return false;
    const std::size_t begin = out.rfind('\n', end);
    const std::string line = out.substr(
        begin == std::string::npos ? 0 : begin + 1,
        end - (begin == std::string::npos ? 0 : begin + 1) + 1);
    std::string error;
    return jsonParse(line, result, error) && result.isObject();
}

} // namespace

int
runRepeat(const BenchWorkload &w, std::uint64_t seed, unsigned seconds,
          unsigned n)
{
    Manifest manifest;
    std::string error;
    if (!loadManifest(manifestPath(), manifest, error)) {
        std::fprintf(stderr, "pagesim_bench: error: %s\n", error.c_str());
        return kExitError;
    }

    std::map<std::string, std::vector<double>> values;
    bool all_ok = true;
    for (unsigned i = 0; i < n; ++i) {
        const std::uint64_t run_seed = seed + i;
        std::string out;
        JsonValue result;
        const bool ran = runChild({"pagesim_bench", "--workload", w.name,
                                   "--seed", std::to_string(run_seed),
                                   "--seconds", std::to_string(seconds),
                                   "--trace", "0"},
                                  out);
        const JsonValue *metrics = nullptr;
        if (ran && parseResult(out, result))
            metrics = result.find("metrics");
        const JsonValue *failed = result.find("failed");
        if (metrics == nullptr || failed == nullptr) {
            std::printf("run %u (seed %" PRIu64 "): FAILED\n", i + 1,
                        run_seed);
            all_ok = false;
            continue;
        }
        std::printf("run %u (seed %" PRIu64 "): %.0f trials failed\n",
                    i + 1, run_seed, failed->number);
        all_ok = all_ok && failed->number == 0;
        for (const auto &[name, m] : metrics->members)
            if (const JsonValue *v = m.find("value"))
                values[name].push_back(v->number);
    }

    std::printf("%s over %u runs:\n  %-16s %14s %14s %14s %8s %7s\n",
                w.name.c_str(), n, "metric", "median", "q1", "q3",
                "spread", "bound");
    for (const MetricSpec &spec : manifest.endToEnd) {
        std::vector<double> v = values[spec.name];
        double q1 = 0.0, q3 = 0.0;
        quartiles(v, q1, q3);
        const double med = quantile(v, 0.5);
        const double spread = med != 0.0 ? (q3 - q1) / med : 0.0;
        std::printf("  %-16s %14.6g %14.6g %14.6g %7.2f%% %6.1f%% %s %s\n",
                    spec.name.c_str(), med, q1, q3, spread * 100.0,
                    spec.bound * 100.0, spec.unit.c_str(),
                    spread > spec.bound ? "unresolved" : "");
    }
    return all_ok ? 0 : 1;
}

} // namespace pagesim::e2e
