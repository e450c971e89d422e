/**
 * @file
 * Core memory-system types shared across mem/, swap/, policy/, kernel/.
 */

#ifndef PAGESIM_MEM_TYPES_HH
#define PAGESIM_MEM_TYPES_HH

#include <cstdint>
#include <limits>

namespace pagesim
{

/** Virtual page number within an address space. */
using Vpn = std::uint64_t;

/** Physical frame number. */
using Pfn = std::uint32_t;

/** Swap slot number. */
using SwapSlot = std::uint32_t;

constexpr Pfn kInvalidPfn = std::numeric_limits<Pfn>::max();
constexpr SwapSlot kInvalidSlot = std::numeric_limits<SwapSlot>::max();

/**
 * Memory control group id: dense index of a Memcg within its
 * MemoryManager (kernel/memcg.hh). Lives here because the FrameTable
 * keeps a per-frame memcg lane and AddressSpace carries its owning
 * group, both below the kernel layer.
 */
using MemcgId = std::uint32_t;

/** Lane value of a frame charged to no memcg (free/balloon/kernel). */
constexpr MemcgId kNoMemcg = std::numeric_limits<MemcgId>::max();

/** Simulated page size in bytes (x86-64 base pages). */
constexpr std::uint64_t kPageSize = 4096;

/**
 * PTEs per page-table region. A region models one leaf page-table page
 * (one PMD entry's worth of PTEs); MG-LRU's Bloom filter and its aging
 * walk operate at region granularity, as in the kernel.
 *
 * On x86-64 this is 512. pagesim uses 64 because footprints are scaled
 * down ~256x from the paper's 12-16 GB: shrinking the region keeps the
 * regions-per-footprint ratio (and therefore the granularity of Bloom
 * filtering and of eviction clustering relative to per-thread data
 * ranges) close to the full-scale system. See DESIGN.md "Scaling".
 */
constexpr std::uint64_t kPtesPerRegion = 64;

/** Region index containing @p vpn. */
constexpr std::uint64_t
regionOf(Vpn vpn)
{
    return vpn / kPtesPerRegion;
}

/** First VPN of region @p region. */
constexpr Vpn
regionBase(std::uint64_t region)
{
    return region * kPtesPerRegion;
}

} // namespace pagesim

#endif // PAGESIM_MEM_TYPES_HH
