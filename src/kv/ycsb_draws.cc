#include "kv/ycsb_draws.hh"

#include <bit>
#include <cassert>
#include <limits>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace pagesim
{

// Tripwires: a new field in either config stops the build here until
// YcsbDrawKey::of keys it (if the draws depend on it) or this comment
// says why not. The draws read only KvConfig::items; itemBytes,
// bucketLoad and the KV seed shape the layout, and mix,
// computePerRequest the expansion, not the draws.
static_assert(sizeof(KvConfig) == 32,
              "KvConfig changed: update YcsbDrawKey::of");
static_assert(sizeof(YcsbConfig) == sizeof(KvConfig) + 40,
              "YcsbConfig changed: update YcsbDrawKey::of");
static_assert(static_cast<int>(YcsbMix::C) == 2,
              "one read bitset per mix");

YcsbDrawKey
YcsbDrawKey::of(const YcsbConfig &config, unsigned tid)
{
    YcsbDrawKey key;
    key.items = config.kv.items;
    key.thetaBits = std::bit_cast<std::uint64_t>(config.zipfTheta);
    key.seed = config.seed;
    key.requestsPerItemBits =
        std::bit_cast<std::uint64_t>(config.requestsPerItem);
    key.threads = config.threads;
    key.tid = tid;
    return key;
}

std::uint64_t
YcsbDrawKey::requests() const
{
    return static_cast<std::uint64_t>(
        static_cast<double>(items) *
        std::bit_cast<double>(requestsPerItemBits) / threads);
}

YcsbDraws::YcsbDraws(const YcsbDrawKey &key)
    : requests_(key.requests()),
      narrow_(key.items <= std::numeric_limits<std::uint16_t>::max() + 1ull)
{
    if (key.items > std::numeric_limits<std::uint32_t>::max() + 1ull)
        throw std::length_error("YCSB draw table: more than 2^32 items");
    Rng rng(splitmix64(key.seed ^ (1000 + key.tid)));
    ZipfianGenerator zipf(key.items, std::bit_cast<double>(key.thetaBits),
                          true);
    if (narrow_)
        items16_.resize(requests_);
    else
        items32_.resize(requests_);
    for (std::vector<std::uint64_t> &bits : reads_)
        bits.assign((requests_ + 63) / 64, 0);
    snapshots_.reserve(requests_ / kSnapshotEvery + 1);

    double thresholds[3];
    for (std::size_t m = 0; m < 3; ++m)
        thresholds[m] = ycsbReadFraction(static_cast<YcsbMix>(m));
    for (std::uint64_t i = 0; i < requests_; ++i) {
        if (i % kSnapshotEvery == 0)
            snapshots_.push_back(rng);
        // The two words of a request, in the live stream's order.
        const std::uint64_t item = zipf.next(rng);
        const double coin = rng.nextDouble();
        if (narrow_)
            items16_[i] = static_cast<std::uint16_t>(item);
        else
            items32_[i] = static_cast<std::uint32_t>(item);
        for (std::size_t m = 0; m < 3; ++m)
            if (coin < thresholds[m])
                reads_[m][i >> 6] |= 1ull << (i & 63);
    }
    // generatorAt(requests_) needs the state after the last request
    // when that lands on a snapshot boundary.
    if (requests_ % kSnapshotEvery == 0)
        snapshots_.push_back(rng);
}

Rng
YcsbDraws::generatorAt(std::uint64_t done) const
{
    assert(done <= requests_);
    Rng rng = snapshots_[done / kSnapshotEvery];
    for (std::uint64_t k = 2 * (done % kSnapshotEvery); k > 0; --k)
        rng.nextU64();
    return rng;
}

std::size_t
YcsbDraws::bytes() const
{
    std::size_t n = items16_.size() * sizeof(std::uint16_t) +
                    items32_.size() * sizeof(std::uint32_t) +
                    snapshots_.size() * sizeof(Rng);
    for (const std::vector<std::uint64_t> &bits : reads_)
        n += bits.size() * sizeof(std::uint64_t);
    return n;
}

std::shared_ptr<const YcsbDraws>
sharedYcsbDraws(const YcsbDrawKey &key)
{
    static std::mutex mutex;
    static std::map<YcsbDrawKey, std::shared_ptr<const YcsbDraws>> memo;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (const auto it = memo.find(key); it != memo.end())
            return it->second;
    }
    // Built outside the lock so streams with other keys are not held
    // up; emplace keeps the first of two concurrent builds.
    auto built = std::make_shared<const YcsbDraws>(key);
    std::lock_guard<std::mutex> lock(mutex);
    return memo.emplace(key, std::move(built)).first->second;
}

} // namespace pagesim
