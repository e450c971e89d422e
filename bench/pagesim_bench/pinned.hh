/**
 * @file
 * Pinned results: what every checked trial must reproduce bit for bit.
 *
 * For each cell and each pinned base seed, pinned.json records the
 * fingerprint of every round up to the workload's pinnedRounds. Seed 1
 * is the default; seed 2 is held out for checking a claim on inputs it
 * was not tuned on. Other seeds run unchecked (ckpt-big1m still checks
 * that every warm trial reproduces its cold one).
 */

#ifndef PAGESIM_BENCH_PINNED_HH
#define PAGESIM_BENCH_PINNED_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.hh"

namespace pagesim::e2e
{

/** Base seeds whose fingerprints are pinned. */
inline constexpr std::uint64_t kPinnedSeeds[] = {1, 2};

/** Path of the pinned results in the source tree. */
const char *pinnedPath();

class Pinned
{
  public:
    /** Outcome of checking one call against the pins. */
    enum class Verdict
    {
        Match,    ///< fingerprint equals the pinned one
        Unpinned, ///< no pin for this seed and round
        Mismatch, ///< fingerprint differs from the pinned one
    };

    /** Parse @p path; false with @p error set on any malformed entry. */
    bool load(const std::string &path, std::string &error);

    /** Write every pin to @p path. */
    bool save(const std::string &path) const;

    /** Empty string, or the first cell of @p w that has no pins. */
    std::string missingCell(const BenchWorkload &w) const;

    /** True when @p seed has fingerprints pinned for workload @p w. */
    bool seedPinned(const BenchWorkload &w, std::uint64_t seed) const;

    Verdict check(const BenchWorkload &w, const Cell &cell,
                  std::uint64_t seed, unsigned round,
                  std::uint64_t fingerprint) const;

    /** Record the per-round fingerprints of @p cell for @p seed. */
    void set(const BenchWorkload &w, const Cell &cell, std::uint64_t seed,
             std::vector<std::uint64_t> fingerprints);

  private:
    /** seed -> fingerprint of each round. */
    using CellPins = std::map<std::uint64_t, std::vector<std::uint64_t>>;

    const CellPins *find(const BenchWorkload &w, const Cell &cell) const;

    /** workload name -> cell label -> pins. */
    std::map<std::string, std::map<std::string, CellPins>> cells_;
};

} // namespace pagesim::e2e

#endif // PAGESIM_BENCH_PINNED_HH
