/**
 * @file
 * pagesim_bench: the end-to-end benchmark.
 *
 *   pagesim_bench --workload NAME [--seed S] [--seconds N] [--trace 0|1]
 *                 [--json FILE]
 *   pagesim_bench --workload NAME --repeat N [--seed S] [--seconds N]
 *   pagesim_bench --smoke
 *   pagesim_bench --pin
 *
 * See README.md in this directory for the workloads, the metrics and
 * how to read them.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "modes.hh"

using namespace pagesim::e2e;

namespace
{

/** Environment knobs that change what a run measures. */
constexpr const char *kForbiddenEnv[] = {
    "PAGESIM_METRICS",        "PAGESIM_METRICS_DIR",
    "PAGESIM_AUDIT_EVERY",    "PAGESIM_CHECKPOINT_DIR",
    "PAGESIM_TRIALS",
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "pagesim_bench: error: %s\n"
                 "usage: pagesim_bench --workload NAME [--seed S] "
                 "[--seconds N] [--trace 0|1] [--json FILE]\n"
                 "       pagesim_bench --workload NAME --repeat N "
                 "[--seed S] [--seconds N]\n"
                 "       pagesim_bench --smoke | --pin\n"
                 "workloads:",
                 why);
    for (const BenchWorkload &w : benchWorkloads())
        std::fprintf(stderr, " %s", w.name.c_str());
    std::fprintf(stderr, "\n");
    return kExitError;
}

/** Parse a whole decimal number in [lo, hi]. */
bool
parseNumber(const char *text, unsigned long long lo, unsigned long long hi,
            unsigned long long &out)
{
    if (text == nullptr || *text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text, &end, 10);
    return errno == 0 && *end == '\0' && out >= lo && out <= hi;
}

} // namespace

int
main(int argc, char **argv)
{
    for (const char *name : kForbiddenEnv) {
        if (std::getenv(name) != nullptr) {
            std::fprintf(stderr,
                         "pagesim_bench: error: env-override: %s is set; "
                         "it changes what the benchmark measures, so "
                         "unset it\n",
                         name);
            return kExitError;
        }
    }
    // The load threads are the only parallelism: no sweep pool, no
    // sharded aging scan inside a trial. Set before any simulator call
    // reads (and caches) it.
    setenv("PAGESIM_WORKERS", "1", 1);

    std::string workload;
    std::string json_path;
    unsigned long long seed = 1;
    unsigned long long seconds = 20;
    unsigned long long trace = 0;
    unsigned long long repeat = 0;
    bool smoke = false;
    bool pin = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        bool ok = true;
        if (arg == "--smoke") {
            smoke = true;
            continue;
        }
        if (arg == "--pin") {
            pin = true;
            continue;
        }
        if (value == nullptr)
            return usage(("missing value for " + arg).c_str());
        ++i;
        if (arg == "--workload")
            workload = value;
        else if (arg == "--json")
            json_path = value;
        else if (arg == "--seed")
            ok = parseNumber(value, 0, UINT64_MAX, seed);
        else if (arg == "--seconds")
            ok = parseNumber(value, 1, 3600, seconds);
        else if (arg == "--trace")
            ok = parseNumber(value, 0, 1, trace);
        else if (arg == "--repeat")
            ok = parseNumber(value, 2, 100, repeat);
        else
            return usage(("unknown argument " + arg).c_str());
        if (!ok)
            return usage(("bad value for " + arg + ": " + value).c_str());
    }

    if (smoke)
        return runSmoke();
    if (pin)
        return runPin();
    const BenchWorkload *w = findWorkload(workload);
    if (w == nullptr)
        return usage(("unknown workload '" + workload + "'").c_str());
    if (repeat > 0)
        return runRepeat(*w, seed, static_cast<unsigned>(seconds),
                         static_cast<unsigned>(repeat));
    if (trace == 1)
        return runTraced(*w, seed, json_path);
    return runTimed(*w, seed, static_cast<unsigned>(seconds), json_path);
}
