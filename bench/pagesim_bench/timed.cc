/**
 * @file
 * The timed end-to-end run, plus the smoke and pin modes that share
 * its closed loop.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <climits>
#include <cstdio>
#include <exception>
#include <mutex>
#include <thread>

#include "harness/checkpoint.hh"
#include "modes.hh"

namespace pagesim::e2e
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Process user + system CPU seconds, all threads. */
double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/**
 * Set-up is timed at least kSetupMinSamples times, and until
 * kSetupMinSeconds of set-up have been timed (at most
 * kSetupMaxSamples), so a millisecond-scale set-up still gets a steady
 * median.
 */
constexpr std::size_t kSetupMinSamples = 5;
constexpr std::size_t kSetupMaxSamples = 64;
constexpr double kSetupMinSeconds = 0.5;

/** Everything set-up does: inputs, then each dataset makeWorkload builds. */
bool
setUp(const BenchWorkload &w, Manifest &manifest, Pinned &pins,
      std::string &error)
{
    if (!loadInputs(w, manifest, pins, error))
        return false;
    for (const auto &[kind, scale] : w.datasets)
        makeWorkload(kind, scale);
    return true;
}

/**
 * Time one cold set-up in a forked child (this process must not have
 * started threads or loaded a dataset yet). False if the child could
 * not be run or its set-up failed.
 */
bool
forkedSetUp(const BenchWorkload &w, double &secs)
{
    int fds[2];
    if (pipe(fds) != 0)
        return false;
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return false;
    }
    if (pid == 0) {
        close(fds[0]);
        Manifest manifest;
        Pinned pins;
        std::string error;
        const auto start = Clock::now();
        const double took =
            setUp(w, manifest, pins, error) ? secondsSince(start) : -1.0;
        const bool sent = write(fds[1], &took, sizeof took) ==
                          static_cast<ssize_t>(sizeof took);
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double took = -1.0;
    const bool got = read(fds[0], &took, sizeof took) ==
                     static_cast<ssize_t>(sizeof took);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || took < 0.0)
        return false;
    secs = took;
    return true;
}

/** Accounting one load thread keeps (merged after the join). */
struct ThreadLog
{
    std::vector<double> wallMs;
    std::uint64_t touches = 0;
    std::uint64_t failed = 0;
    /** Rounds started (highest round claimed + 1). */
    unsigned rounds = 0;
};

/**
 * Run one task's call(s) and check them.
 * @return the fingerprint of the task's first (cold) call
 */
std::uint64_t
runTask(const BenchWorkload &w, const Pinned &pins, std::uint64_t seed,
        unsigned round, const Cell &cell, ThreadLog &log)
{
    const std::uint64_t trial_seed = roundSeed(seed, round);
    log.rounds = std::max(log.rounds, round + 1);
    const CallResult first = runCall(cell, trial_seed);
    log.wallMs.push_back(first.wallMs);
    log.touches += first.touches;
    log.failed += !checkCall(w, pins, cell, seed, round, first, nullptr);
    if (w.coldWarm) {
        const CallResult warm = runCall(cell, trial_seed);
        log.wallMs.push_back(warm.wallMs);
        log.touches += warm.touches;
        log.failed += !checkCall(w, pins, cell, seed, round, warm, &first);
    }
    return first.fingerprint;
}

/**
 * For a seed with no pins: run round 0 of every cell again, after the
 * timed interval, and count the cells whose result differs from the
 * timed run's (@p timed, by cell). Same input, same result is the check
 * every seed can have.
 */
std::uint64_t
recheckRound0(const BenchWorkload &w, const Pinned &pins, std::uint64_t seed,
              const std::vector<std::uint64_t> &timed)
{
    std::vector<ThreadLog> logs(loadThreads());
    std::vector<std::uint64_t> again(w.cells.size());
    runRounds(
        w, loadThreads(), 1, [] { return false; },
        [&](unsigned worker, unsigned round, std::size_t c) {
            again[c] = runTask(w, pins, seed, round, w.cells[c],
                               logs[worker]);
        });
    std::uint64_t failed = 0;
    for (const ThreadLog &log : logs)
        failed += log.failed;
    for (std::size_t c = 0; c < w.cells.size(); ++c) {
        if (again[c] == timed[c])
            continue;
        ++failed;
        std::fprintf(stderr,
                     "pagesim_bench: MISMATCH %s cell %s seed %" PRIu64
                     " round 0: rerun gave %016" PRIx64 ", timed run %016" PRIx64
                     "\n",
                     w.name.c_str(), w.cells[c].label.c_str(), seed,
                     again[c], timed[c]);
    }
    return failed;
}

} // namespace

bool
checkCall(const BenchWorkload &w, const Pinned &pins, const Cell &cell,
          std::uint64_t seed, unsigned round, const CallResult &call,
          const CallResult *cold)
{
    const bool pinned_ok =
        pins.check(w, cell, seed, round, call.fingerprint) !=
        Pinned::Verdict::Mismatch;
    const bool warm_ok =
        cold == nullptr || (cold->fingerprint == call.fingerprint &&
                            cold->touches == call.touches);
    if (pinned_ok && warm_ok)
        return true;
    const char *what = !pinned_ok ? "fingerprint differs from pinned"
                                  : "warm result differs from cold";
    std::fprintf(stderr,
                 "pagesim_bench: MISMATCH %s cell %s seed %" PRIu64
                 " round %u: %s (fingerprint %016" PRIx64
                 ", touches %" PRIu64 ")\n",
                 w.name.c_str(), cell.label.c_str(), seed, round, what,
                 call.fingerprint, call.touches);
    return false;
}

unsigned
loadThreads()
{
    const unsigned host = std::thread::hardware_concurrency();
    return std::clamp(host, 1u, 4u);
}

bool
loadInputs(const BenchWorkload &w, Manifest &manifest, Pinned &pins,
           std::string &error)
{
    if (!loadManifest(manifestPath(), manifest, error) ||
        !pins.load(pinnedPath(), error))
        return false;
    if (std::find(manifest.workloads.begin(), manifest.workloads.end(),
                  w.name) == manifest.workloads.end()) {
        error = std::string(manifestPath()) + " does not list workload " +
                w.name;
        return false;
    }
    const std::string missing = pins.missingCell(w);
    if (!missing.empty()) {
        error = std::string(pinnedPath()) + " has no entry for " + w.name +
                " cell " + missing + "; regenerate it with --pin";
        return false;
    }
    return true;
}

void
runRounds(const BenchWorkload &w, unsigned threads, unsigned rounds,
          const std::function<bool()> &stop,
          const std::function<void(unsigned, unsigned, std::size_t)> &task)
{
    const std::uint64_t ncells = w.cells.size();
    const std::uint64_t batch = w.coldWarm ? ncells : ncells * rounds;
    // Tasks are claimed in order, and stop() is consulted only when the
    // next task opens a round, so a run covers whole rounds: every cell
    // runs equally often, and where the clock cuts cannot shift the mix.
    std::mutex claim_mutex;
    std::uint64_t next = 0;
    std::uint64_t end = ncells * rounds;
    const auto claim = [&](std::uint64_t limit, std::uint64_t &i) {
        std::lock_guard<std::mutex> lock(claim_mutex);
        if (next % ncells == 0 && next < end && stop())
            end = next;
        if (next >= std::min(end, limit))
            return false;
        i = next++;
        return true;
    };
    for (std::uint64_t first = 0; first < end; first += batch) {
        const std::uint64_t last = first + batch;
        std::mutex error_mutex;
        std::exception_ptr error;
        const auto drain = [&](unsigned worker) {
            try {
                std::uint64_t i = 0;
                while (claim(last, i))
                    task(worker, static_cast<unsigned>(i / ncells),
                         static_cast<std::size_t>(i % ncells));
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
            }
        };
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back(drain, t);
        for (std::thread &t : pool)
            t.join();
        if (error)
            std::rethrow_exception(error);
        if (w.coldWarm)
            CheckpointCache::instance().clear();
    }
}

int
runTimed(const BenchWorkload &w, std::uint64_t seed, unsigned seconds,
         const std::string &json_path)
{
    // Set-up, timed several times: cold copies in forked children
    // first (while this process is still single-threaded and has no
    // dataset cached), then this process's own.
    std::vector<double> setups;
    double setup_total = 0.0;
    for (std::size_t tries = 1;
         tries < kSetupMinSamples ||
         (setup_total < kSetupMinSeconds && tries < kSetupMaxSamples);
         ++tries) {
        double secs = 0.0;
        if (forkedSetUp(w, secs)) {
            setups.push_back(secs);
            setup_total += secs;
        }
    }
    Manifest manifest;
    Pinned pins;
    std::string error;
    const auto setup_start = Clock::now();
    if (!setUp(w, manifest, pins, error)) {
        std::fprintf(stderr, "pagesim_bench: error: %s\n", error.c_str());
        return kExitError;
    }
    setups.push_back(secondsSince(setup_start));

    const unsigned threads = loadThreads();
    const bool pinned = pins.seedPinned(w, seed);
    std::printf("pagesim_bench: %s, seed %" PRIu64 ", %zu cells, "
                "%u load threads, closed loop for %u s\n",
                w.name.c_str(), seed, w.cells.size(), threads, seconds);
    if (!pinned) {
        std::printf("pagesim_bench: seed %" PRIu64 " is not pinned; "
                    "checking only that round 0 reproduces itself%s\n",
                    seed, w.coldWarm ? " and warm == cold" : "");
    }

    std::vector<ThreadLog> logs(threads);
    std::vector<std::uint64_t> round0(w.cells.size());
    const double cpu_start = processCpuSeconds();
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::seconds(seconds);
    runRounds(
        w, threads, UINT_MAX,
        [deadline] { return Clock::now() >= deadline; },
        [&](unsigned worker, unsigned round, std::size_t c) {
            const std::uint64_t fp =
                runTask(w, pins, seed, round, w.cells[c], logs[worker]);
            if (round == 0)
                round0[c] = fp;
        });
    const double elapsed = secondsSince(start);
    const double cpu = processCpuSeconds() - cpu_start;
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    ThreadLog all;
    for (const ThreadLog &log : logs) {
        all.wallMs.insert(all.wallMs.end(), log.wallMs.begin(),
                          log.wallMs.end());
        all.touches += log.touches;
        all.failed += log.failed;
        all.rounds = std::max(all.rounds, log.rounds);
    }
    if (all.rounds > w.pinnedRounds && pinned) {
        std::printf("pagesim_bench: %u rounds ran; rounds past the %u "
                    "pinned ones were not checked\n",
                    all.rounds, w.pinnedRounds);
    }
    if (!pinned)
        all.failed += recheckRound0(w, pins, seed, round0);

    const std::uint64_t calls = all.wallMs.size();
    const double refs = static_cast<double>(all.touches);
    Measurements m;
    m["refs_per_s"] = {refs / elapsed, calls};
    m["cpu_ns_per_ref"] = {refs > 0 ? cpu * 1e9 / refs : 0.0, calls};
    m["trial_p50_ms"] = {quantile(all.wallMs, 0.5), calls};
    m["trial_p90_ms"] = {quantile(all.wallMs, 0.9), calls};
    m["setup_s"] = {quantile(setups, 0.5), setups.size()};
    m["peak_rss_mb"] = {static_cast<double>(ru.ru_maxrss) / 1024.0, 1};

    RunSummary summary;
    summary.attempted = calls;
    summary.failed = all.failed;
    summary.correct = all.failed == 0 && calls > 0;
    if (!report(manifest.endToEnd, w.name, m, summary, json_path))
        return kExitError;
    return summary.correct ? 0 : 1;
}

int
runSmoke()
{
    const auto start = Clock::now();
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const BenchWorkload &w : benchWorkloads()) {
        Manifest manifest;
        Pinned pins;
        std::string error;
        if (!loadInputs(w, manifest, pins, error)) {
            std::fprintf(stderr, "pagesim_bench: error: %s\n",
                         error.c_str());
            return kExitError;
        }
        std::vector<ThreadLog> logs(loadThreads());
        runRounds(
            w, loadThreads(), 1, [] { return false; },
            [&](unsigned worker, unsigned round, std::size_t c) {
                runTask(w, pins, kPinnedSeeds[0], round, w.cells[c],
                        logs[worker]);
            });
        std::uint64_t calls = 0;
        std::uint64_t bad = 0;
        for (const ThreadLog &log : logs) {
            calls += log.wallMs.size();
            bad += log.failed;
        }
        std::printf("smoke %-12s %3" PRIu64 " trials, %" PRIu64
                    " failed\n",
                    w.name.c_str(), calls, bad);
        attempted += calls;
        failed += bad;
    }
    std::printf("smoke: %" PRIu64 " trials, %" PRIu64
                " failed, %.1f s\n",
                attempted, failed, secondsSince(start));
    return failed == 0 ? 0 : 1;
}

int
runPin()
{
    Pinned pins;
    for (const BenchWorkload &w : benchWorkloads()) {
        const std::size_t ncells = w.cells.size();
        const unsigned rounds = w.pinnedRounds;
        for (const std::uint64_t seed : kPinnedSeeds) {
            std::vector<std::uint64_t> fps(ncells * rounds);
            runRounds(
                w, loadThreads(), rounds, [] { return false; },
                [&](unsigned, unsigned round, std::size_t c) {
                    fps[c * rounds + round] =
                        runCall(w.cells[c], roundSeed(seed, round))
                            .fingerprint;
                });
            for (std::size_t c = 0; c < ncells; ++c) {
                const auto first = fps.begin() + static_cast<long>(c * rounds);
                pins.set(w, w.cells[c], seed, {first, first + rounds});
            }
        }
        std::printf("pinned %s: %zu cells x %u rounds x %zu seeds\n",
                    w.name.c_str(), ncells, rounds,
                    std::size(kPinnedSeeds));
    }
    if (!pins.save(pinnedPath())) {
        std::fprintf(stderr, "pagesim_bench: error: cannot write %s\n",
                     pinnedPath());
        return kExitError;
    }
    std::printf("wrote %s\n", pinnedPath());
    return 0;
}

} // namespace pagesim::e2e
