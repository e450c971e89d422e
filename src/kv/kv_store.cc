#include "kv/kv_store.hh"

#include <numeric>

namespace pagesim
{

namespace
{

std::uint64_t
bucketCount(const KvConfig &config)
{
    const auto buckets = static_cast<std::uint64_t>(
        static_cast<double>(config.items) / config.bucketLoad);
    return buckets == 0 ? 1 : buckets;
}

} // namespace

KvStore::KvStore(const KvConfig &config)
    : config_(config), bucketMod_(bucketCount(config)),
      itemMod_(config.items)
{
    bucketPages_ =
        (bucketMod_.divisor() * kBucketBytes + kPageSize - 1) /
        kPageSize;
    slabPages_ = (config_.items * config_.itemBytes + kPageSize - 1) /
                 kPageSize;
    // Slab placement permutation slot = (a*item + b) mod items: pick a
    // multiplier co-prime with the item count so it is a bijection.
    const std::uint64_t n = config_.items;
    permA_ = splitmix64(config_.seed) % n;
    while (permA_ == 0 || std::gcd(permA_, n) != 1)
        permA_ = (permA_ + 1) % n;
    permB_ = splitmix64(config_.seed ^ 0xbeef) % n;
}

std::uint64_t
KvStore::footprintPages() const
{
    return bucketPages_ + slabPages_;
}

void
KvStore::mapInto(AddressSpace &space)
{
    bucketBase_ = space.map("kv.buckets", bucketPages_);
    slabBase_ = space.map("kv.slab", slabPages_);
}

} // namespace pagesim
