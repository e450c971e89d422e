/**
 * @file
 * Memcached-like in-memory KV store layout.
 *
 * A chained hash table (bucket array) plus a slab area holding
 * fixed-size items, both living in simulated memory. The store
 * resolves a key to the pages a request touches: the bucket page and
 * the item's slab page(s). Keys hash to buckets uniformly; item
 * *popularity* skew comes from the YCSB request generator, not the
 * layout — matching how memcached behaves under a zipfian trace.
 *
 * Both per-request remainders (key -> bucket, item -> slot) divide by
 * counts fixed at construction, so they are FastMod multiplies rather
 * than 64-bit divides; the results are the same integers.
 */

#ifndef PAGESIM_KV_KV_STORE_HH
#define PAGESIM_KV_KV_STORE_HH

#include <cassert>
#include <cstdint>

#include "mem/address_space.hh"
#include "mem/types.hh"
#include "sim/rng.hh"

namespace pagesim
{

/** KV store sizing. */
struct KvConfig
{
    std::uint64_t items = 48000;
    std::uint32_t itemBytes = 1200;
    /** Buckets per item (1.0 = one bucket per item). */
    double bucketLoad = 1.0;
    std::uint64_t seed = 99;
};

/** The store's memory layout and key-to-page resolution. */
class KvStore
{
  public:
    explicit KvStore(const KvConfig &config);

    /** Pages the store needs (bucket array + slab). */
    std::uint64_t footprintPages() const;

    /** Create the VMAs; call once per trial. */
    void mapInto(AddressSpace &space);

    std::uint64_t items() const { return config_.items; }

    /** Bucket page a key's lookup touches. */
    Vpn
    bucketPageOf(std::uint64_t key) const
    {
        const std::uint64_t bucket =
            bucketMod_(splitmix64(key ^ config_.seed));
        return bucketBase_ + bucket * kBucketBytes / kPageSize;
    }

    /**
     * Slab pages item @p item occupies: fills @p pages[0..1];
     * returns 1 or 2.
     */
    unsigned
    itemPagesOf(std::uint64_t item, Vpn pages[2]) const
    {
        const std::uint64_t off = slotOf(item) * config_.itemBytes;
        const std::uint64_t first = off / kPageSize;
        const std::uint64_t last =
            (off + config_.itemBytes - 1) / kPageSize;
        pages[0] = slabBase_ + first;
        if (last != first) {
            pages[1] = slabBase_ + last;
            return 2;
        }
        return 1;
    }

    /**
     * The slab slot an item lives in. Items are placed by a
     * deterministic permutation of insertion order, so adjacent keys
     * are NOT adjacent in the slab (allocation order != key order,
     * as in a real slab allocator under churn).
     */
    std::uint64_t
    slotOf(std::uint64_t item) const
    {
        assert(item < config_.items);
        return itemMod_(permA_ * item + permB_);
    }

    std::uint64_t bucketPages() const { return bucketPages_; }
    std::uint64_t slabPages() const { return slabPages_; }
    Vpn bucketBase() const { return bucketBase_; }
    Vpn slabBase() const { return slabBase_; }

  private:
    static constexpr std::uint64_t kBucketBytes = 8; // head pointer

    KvConfig config_;
    /** % bucket count, % item count. */
    FastMod bucketMod_;
    FastMod itemMod_;
    std::uint64_t bucketPages_;
    std::uint64_t slabPages_;
    std::uint64_t permA_ = 1;
    std::uint64_t permB_ = 0;
    Vpn bucketBase_ = 0;
    Vpn slabBase_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_KV_KV_STORE_HH
