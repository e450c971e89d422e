/**
 * @file
 * pagesim_bench's run modes and the pieces they share.
 */

#ifndef PAGESIM_BENCH_MODES_HH
#define PAGESIM_BENCH_MODES_HH

#include <cstdint>
#include <functional>
#include <string>

#include "pinned.hh"
#include "report.hh"
#include "workloads.hh"

namespace pagesim::e2e
{

/** Exit code of every named error (bad input, missing file, ...). */
inline constexpr int kExitError = 2;

/** Load threads: min(4, host threads). */
unsigned loadThreads();

/**
 * Read BENCHMARK.json and pinned.json, and check that the first lists
 * @p w and the second pins every cell of it. On failure @p error names
 * the problem.
 */
bool loadInputs(const BenchWorkload &w, Manifest &manifest, Pinned &pins,
                std::string &error);

/**
 * Check one call against the pins and, when @p cold is set, that it
 * reproduces that cold call of the same trial exactly. Prints a
 * MISMATCH line naming the cell and returns false on failure.
 */
bool checkCall(const BenchWorkload &w, const Pinned &pins, const Cell &cell,
               std::uint64_t seed, unsigned round, const CallResult &call,
               const CallResult *cold);

/**
 * Closed loop over rounds [0, @p rounds) of @p w's cells on @p threads
 * host threads: each thread claims the next (round, cell) task and
 * starts it only after its previous one returned. @p stop() is checked
 * whenever a new round would open, so every cell runs the same number
 * of times. Cold/warm workloads run one round at a time and clear the
 * checkpoint cache after each.
 */
void runRounds(const BenchWorkload &w, unsigned threads, unsigned rounds,
               const std::function<bool()> &stop,
               const std::function<void(unsigned worker, unsigned round,
                                        std::size_t cell)> &task);

/** Timed end-to-end run (--trace 0). Returns the exit code. */
int runTimed(const BenchWorkload &w, std::uint64_t seed, unsigned seconds,
             const std::string &json_path);

/** Traced per-layer run (--trace 1). Returns the exit code. */
int runTraced(const BenchWorkload &w, std::uint64_t seed,
              const std::string &json_path);

/** Round 0 of every cell of every workload, against the pins. */
int runSmoke();

/** Recompute pinned.json for the pinned seeds. */
int runPin();

/**
 * @p n timed runs of @p w in fresh child processes, one after another,
 * with seeds @p seed .. @p seed + n - 1; prints each metric's median
 * and quartiles and flags it "unresolved" when the spread exceeds its
 * bound.
 */
int runRepeat(const BenchWorkload &w, std::uint64_t seed,
              unsigned seconds, unsigned n);

} // namespace pagesim::e2e

#endif // PAGESIM_BENCH_MODES_HH
