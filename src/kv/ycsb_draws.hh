/**
 * @file
 * A YCSB thread's request draws, drawn once per process.
 *
 * A YCSB thread's requests are a pure function of the workload config
 * and the thread id: its generator is seeded from YcsbConfig::seed and
 * the tid, never from the trial seed, so every trial of every cell at
 * one scale replays the same per-thread draws. YcsbDraws holds them:
 * the item of each request, and whether it reads, under each mix. A
 * process-wide memo (sharedYcsbDraws) builds a table on first use and
 * hands every later stream, in every rig, the same immutable copy.
 *
 * Each request draws exactly two generator words: the zipfian's
 * uniform and the read/write coin. The three mixes draw the same coin
 * and differ only in its threshold, so they share one item sequence,
 * stored in the narrowest lane that holds the item count (u16 or u32),
 * plus one read bitset per mix. Checkpoint images carry the generator
 * words a live draw would leave; the table derives them from a
 * snapshot taken every kSnapshotEvery requests.
 */

#ifndef PAGESIM_KV_YCSB_DRAWS_HH
#define PAGESIM_KV_YCSB_DRAWS_HH

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "kv/ycsb_workload.hh"
#include "sim/rng.hh"

namespace pagesim
{

/** Every config field a thread's draws depend on, plus the tid. */
struct YcsbDrawKey
{
    std::uint64_t items = 0;
    std::uint64_t thetaBits = 0; ///< YcsbConfig::zipfTheta's bits
    std::uint64_t seed = 0;
    std::uint64_t requestsPerItemBits = 0;
    unsigned threads = 0;
    unsigned tid = 0;

    auto operator<=>(const YcsbDrawKey &) const = default;

    static YcsbDrawKey of(const YcsbConfig &config, unsigned tid);

    /** The thread's request count (its share of items x ratio). */
    std::uint64_t requests() const;
};

/** One thread's request draws; immutable once built. */
class YcsbDraws
{
  public:
    /** Requests between generator snapshots. */
    static constexpr std::uint64_t kSnapshotEvery = 4096;

    /**
     * Draw every request of @p key's thread. Not memoized: streams
     * use sharedYcsbDraws().
     */
    explicit YcsbDraws(const YcsbDrawKey &key);

    std::uint64_t requests() const { return requests_; }

    /** The item request @p i looks up. */
    std::uint64_t
    item(std::uint64_t i) const
    {
        return narrow_ ? items16_[i] : items32_[i];
    }

    /** Does request @p i read under @p mix (else it updates)? */
    bool
    isRead(YcsbMix mix, std::uint64_t i) const
    {
        const std::vector<std::uint64_t> &bits =
            reads_[static_cast<std::size_t>(mix)];
        return (bits[i >> 6] >> (i & 63)) & 1;
    }

    /**
     * The generator as a live draw leaves it after @p done requests
     * (done <= requests()): the nearest snapshot at or below, advanced
     * two words per request since.
     */
    Rng generatorAt(std::uint64_t done) const;

    /** Heap bytes the table holds. */
    std::size_t bytes() const;

  private:
    std::uint64_t requests_ = 0;
    bool narrow_ = true;
    std::vector<std::uint16_t> items16_;
    std::vector<std::uint32_t> items32_;
    /** One bit per request per mix (YcsbMix order): 1 = read. */
    std::array<std::vector<std::uint64_t>, 3> reads_;
    /** The generator before request k * kSnapshotEvery. */
    std::vector<Rng> snapshots_;
};

/**
 * @p key's draws, built on first use and shared process-wide. A
 * concurrent first use may build twice; both builds are the same
 * bytes, and the memo keeps the first.
 */
std::shared_ptr<const YcsbDraws> sharedYcsbDraws(const YcsbDrawKey &key);

} // namespace pagesim

#endif // PAGESIM_KV_YCSB_DRAWS_HH
