/**
 * @file
 * Region-structured page table with word-at-a-time flag bitmaps.
 *
 * PTE state is stored structure-of-arrays: three parallel lanes (value
 * word, shadow word, flag byte) indexed by VPN, grouped into regions
 * (one leaf page-table page each). MG-LRU's aging path walks this
 * structure linearly, which is exactly the locality advantage the paper
 * describes over Clock's per-page rmap walks; the region is also the
 * granularity of the Bloom filter. Per-region counters (mapped/present)
 * let walkers skip empty regions the way the real walker skips holes.
 * `at()` hands out PteRef/PteView proxies, so call sites keep the
 * member-function syntax of the old array-of-structs Pte.
 *
 * Alongside the PTE lanes the table maintains three per-region bitmaps
 * (kPtesPerRegion bits each, packed into 64-bit words): `present`,
 * `accessed`, and `mapped`, each bit mirroring the same-named flag of
 * its PTE. They exist purely for host speed — the scan hot paths
 * (MG-LRU aging, eviction-side neighbor scans, the resident-hit fast
 * path) consume whole words with countr_zero instead of touching one
 * PTE record per slot, so a region whose `present & accessed` word is
 * zero costs zero PTE loads. A coarse summary bitmap (one bit per
 * region: "any PTE present") lets walkers skip empty stretches of the
 * address space in word-sized jumps.
 *
 * Regions are further grouped into fixed shards (kRegionsPerShard)
 * carrying coarse mapped/present counters. Shards are the unit of
 * parallel harvesting: a worker owning a shard touches only that
 * shard's bitmap words and flag bytes, so disjoint shards can be
 * scanned concurrently without synchronization, and the auditor can
 * cross-check shard totals without walking the whole table serially.
 *
 * Coherence rule: every mutation of a Present/Accessed/Mapped PTE flag
 * must go through the tracked mutators below (mapFrame, unmapToSwap,
 * setAccessed, testAndClearAccessed, harvestYoungWord, ...), never
 * through PteRef::setFlag directly — that is what keeps the bitmaps,
 * the per-region counters, the shard counters, the summary words, and
 * the running totals in lockstep. MmAuditor cross-checks all of them
 * against the PTE flags on every audit pass. Untracked flags (Dirty,
 * InIo, Slow, File, shadow words) may still be flipped on the proxy
 * directly.
 */

#ifndef PAGESIM_MEM_PAGE_TABLE_HH
#define PAGESIM_MEM_PAGE_TABLE_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "mem/pte.hh"
#include "mem/types.hh"
#include "sim/serialize.hh"

namespace pagesim
{

/** Per-region bookkeeping, maintained by PageTable mutators. */
struct RegionInfo
{
    std::uint32_t mapped = 0;   ///< PTEs inside a VMA
    std::uint32_t present = 0;  ///< resident PTEs
};

/** Per-shard bookkeeping (kRegionsPerShard regions per shard). */
struct ShardInfo
{
    std::uint64_t mapped = 0;  ///< PTEs inside a VMA
    std::uint64_t present = 0; ///< resident PTEs
};

/** A single address space's page table. */
class PageTable
{
  public:
    /** 64-bit bitmap words per region. */
    static constexpr std::uint64_t kWordsPerRegion = kPtesPerRegion / 64;
    static_assert(kPtesPerRegion % 64 == 0,
                  "regions must pack into whole bitmap words");

    PageTable() = default;

    /** Number of regions the table currently spans. */
    std::uint64_t numRegions() const { return regions_.size(); }

    /** Number of shards the table currently spans. */
    std::uint64_t numShards() const { return shards_.size(); }

    /** Total VPN span (regions * kPtesPerRegion). */
    std::uint64_t span() const { return regions_.size() * kPtesPerRegion; }

    /** Grow the table to cover @p vpn_end VPNs. */
    void
    growTo(Vpn vpn_end)
    {
        const std::uint64_t need =
            (vpn_end + kPtesPerRegion - 1) / kPtesPerRegion;
        if (need > regions_.size()) {
            const std::uint64_t slots = need * kPtesPerRegion;
            pteValue_.resize(slots);
            pteShadow_.resize(slots);
            pteFlags_.resize(slots);
            regions_.resize(need);
            shards_.resize((need + kRegionsPerShard - 1) /
                           kRegionsPerShard);
            const std::uint64_t words = need * kWordsPerRegion;
            presentBits_.resize(words);
            accessedBits_.resize(words);
            mappedBits_.resize(words);
            presentSummary_.resize((need + 63) / 64);
        }
    }

    PteRef
    at(Vpn vpn)
    {
        assert(vpn < pteFlags_.size());
        return PteRef(pteValue_[vpn], pteShadow_[vpn], pteFlags_[vpn]);
    }

    PteView
    at(Vpn vpn) const
    {
        assert(vpn < pteFlags_.size());
        return PteView(pteValue_[vpn], pteShadow_[vpn], pteFlags_[vpn]);
    }

    RegionInfo &
    region(std::uint64_t r)
    {
        assert(r < regions_.size());
        return regions_[r];
    }

    const RegionInfo &
    region(std::uint64_t r) const
    {
        assert(r < regions_.size());
        return regions_[r];
    }

    /** Shard @p s's coarse counters. */
    const ShardInfo &
    shard(std::uint64_t s) const
    {
        assert(s < shards_.size());
        return shards_[s];
    }

    // ---- Word-at-a-time bitmap views (scan hot paths) ---------------

    /** Word @p w of region @p r's present bitmap. */
    std::uint64_t
    presentWord(std::uint64_t r, std::uint64_t w = 0) const
    {
        return presentBits_[r * kWordsPerRegion + w];
    }

    /** Word @p w of region @p r's accessed bitmap. */
    std::uint64_t
    accessedWord(std::uint64_t r, std::uint64_t w = 0) const
    {
        return accessedBits_[r * kWordsPerRegion + w];
    }

    /** Word @p w of region @p r's mapped bitmap. */
    std::uint64_t
    mappedWord(std::uint64_t r, std::uint64_t w = 0) const
    {
        return mappedBits_[r * kWordsPerRegion + w];
    }

    /** Any PTE of region @p r present (summary bitmap read). */
    bool
    anyPresent(std::uint64_t r) const
    {
        return (presentSummary_[r / 64] >> (r % 64)) & 1u;
    }

    /**
     * First region >= @p from with at least one present PTE, or
     * numRegions() when the rest of the table is empty. Walkers use
     * this to jump over empty stretches 64 regions per word load.
     */
    std::uint64_t
    nextPresentRegion(std::uint64_t from) const
    {
        const std::uint64_t nr = regions_.size();
        if (from >= nr)
            return nr;
        std::uint64_t wi = from / 64;
        std::uint64_t word =
            presentSummary_[wi] & (~0ull << (from % 64));
        while (word == 0) {
            if (++wi >= presentSummary_.size())
                return nr;
            word = presentSummary_[wi];
        }
        const std::uint64_t r =
            wi * 64 + static_cast<std::uint64_t>(std::countr_zero(word));
        return r < nr ? r : nr;
    }

    /**
     * Clear the bits of @p mask in region @p r's accessed word @p w
     * (bitmap side only). The caller owns the matching PTE flag
     * fixups — this is the word-store half of the aging scan's
     * "word-store plus per-PTE fixup" clearing.
     */
    void
    clearAccessedBits(std::uint64_t r, std::uint64_t w,
                      std::uint64_t mask)
    {
        accessedBits_[r * kWordsPerRegion + w] &= ~mask;
    }

    /**
     * Aging-harvest primitive: return the present&accessed mask of
     * bitmap word @p wi and clear those accessed bits, both in the
     * bitmap word and in the affected PTE flag bytes — the fused
     * tracked-mutator form of accessedWord + clearAccessedBits +
     * per-PTE testAndClearAccessed.
     *
     * Safe to call concurrently for DISTINCT words: it reads and
     * writes only word @p wi of the accessed bitmap plus the flag
     * bytes of that word's own 64 PTEs, so workers harvesting
     * disjoint shards never touch the same memory location.
     */
    std::uint64_t
    harvestYoungWord(std::uint64_t wi)
    {
        const std::uint64_t young = accessedBits_[wi] & presentBits_[wi];
        if (young == 0)
            return 0;
        accessedBits_[wi] &= ~young;
        const Vpn base = wi * 64;
        for (std::uint64_t m = young; m != 0; m &= m - 1) {
            const auto bit =
                static_cast<std::uint64_t>(std::countr_zero(m));
            pteFlags_[base + bit] &=
                static_cast<std::uint8_t>(~Pte::Accessed);
        }
        return young;
    }

    // ---- Tracked mutators (keep bitmaps in lockstep) ----------------

    /** Mark @p vpn as belonging to a VMA (called by AddressSpace). */
    void
    markMapped(Vpn vpn, bool file)
    {
        const PteRef pte = at(vpn);
        assert(!pte.mapped());
        pte.setFlag(Pte::Mapped);
        if (file)
            pte.setFlag(Pte::File);
        mappedBits_[vpn / 64] |= bitOf(vpn);
        ++regions_[regionOf(vpn)].mapped;
        ++shards_[vpn / kVpnsPerShard].mapped;
        ++totalMapped_;
    }

    /** Set the accessed bit ("hardware" sets the A bit on access). */
    void
    setAccessed(Vpn vpn)
    {
        at(vpn).setFlag(Pte::Accessed);
        accessedBits_[vpn / 64] |= bitOf(vpn);
    }

    /** Clear the accessed bit (aging / test fixtures). */
    void
    clearAccessed(Vpn vpn)
    {
        at(vpn).clearFlag(Pte::Accessed);
        accessedBits_[vpn / 64] &= ~bitOf(vpn);
    }

    /**
     * Test-and-clear the accessed bit, the primitive both policies'
     * scans are built on. @return the prior value.
     */
    bool
    testAndClearAccessed(Vpn vpn)
    {
        const bool was = at(vpn).testAndClearAccessed();
        accessedBits_[vpn / 64] &= ~bitOf(vpn);
        return was;
    }

    /**
     * Transition @p vpn to present (fast or slow tier) at @p pfn. For
     * a not-present PTE this also books the new residency (region
     * counter, bitmaps, summary, running total); an already-present
     * PTE (tier migration) just retargets the frame.
     */
    void
    mapFrame(Vpn vpn, Pfn pfn)
    {
        const PteRef pte = at(vpn);
        const bool was = pte.present();
        pte.mapFrame(pfn);
        if (!was)
            notePresent(vpn);
    }

    /** Transition @p vpn: present -> swapped at @p slot / @p shadow. */
    void
    unmapToSwap(Vpn vpn, SwapSlot slot, std::uint32_t shadow)
    {
        const PteRef pte = at(vpn);
        assert(pte.present());
        pte.unmapToSwap(slot, shadow);
        noteNotPresent(vpn);
    }

    /** Transition @p vpn: present -> empty (clean discard). */
    void
    unmapDiscard(Vpn vpn, std::uint32_t shadow)
    {
        const PteRef pte = at(vpn);
        assert(pte.present());
        pte.unmapDiscard(shadow);
        noteNotPresent(vpn);
    }

    /** Total mapped PTEs across the table (running count). */
    std::uint64_t totalMapped() const { return totalMapped_; }

    /** Total present PTEs across the table (running count). */
    std::uint64_t totalPresent() const { return totalPresent_; }

    /**
     * Checkpoint every lane wholesale (PTE lanes, region/shard
     * counters, bitmaps, summary, running totals). The bulk podVec
     * path keeps this at memcpy speed on 64M-page tables.
     */
    void
    visitState(StateIO &io)
    {
        io.lane(pteValue_);
        io.lane(pteShadow_);
        io.lane(pteFlags_);
        io.lane(regions_);
        io.lane(shards_);
        io.lane(presentBits_);
        io.lane(accessedBits_);
        io.lane(mappedBits_);
        io.lane(presentSummary_);
        io.u64(totalMapped_);
        io.u64(totalPresent_);
    }

  private:
    static std::uint64_t bitOf(Vpn vpn) { return 1ull << (vpn % 64); }

    void
    notePresent(Vpn vpn)
    {
        presentBits_[vpn / 64] |= bitOf(vpn);
        const std::uint64_t r = regionOf(vpn);
        ++regions_[r].present;
        ++shards_[shardOf(r)].present;
        presentSummary_[r / 64] |= 1ull << (r % 64);
        ++totalPresent_;
    }

    void
    noteNotPresent(Vpn vpn)
    {
        presentBits_[vpn / 64] &= ~bitOf(vpn);
        accessedBits_[vpn / 64] &= ~bitOf(vpn); // unmap clears Accessed
        const std::uint64_t r = regionOf(vpn);
        RegionInfo &ri = regions_[r];
        assert(ri.present > 0);
        if (--ri.present == 0)
            presentSummary_[r / 64] &= ~(1ull << (r % 64));
        ShardInfo &si = shards_[shardOf(r)];
        assert(si.present > 0);
        --si.present;
        assert(totalPresent_ > 0);
        --totalPresent_;
    }

    /** PTE lanes, one entry per VPN (structure-of-arrays). */
    std::vector<std::uint32_t> pteValue_;
    std::vector<std::uint32_t> pteShadow_;
    std::vector<std::uint8_t> pteFlags_;
    std::vector<RegionInfo> regions_;
    std::vector<ShardInfo> shards_;
    /** Flat bitmaps, one bit per PTE (index vpn/64). */
    std::vector<std::uint64_t> presentBits_;
    std::vector<std::uint64_t> accessedBits_;
    std::vector<std::uint64_t> mappedBits_;
    /** One bit per region: region has any present PTE. */
    std::vector<std::uint64_t> presentSummary_;
    std::uint64_t totalMapped_ = 0;
    std::uint64_t totalPresent_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_MEM_PAGE_TABLE_HH
