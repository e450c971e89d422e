/**
 * @file
 * AddressSpace: a process's virtual memory layout.
 *
 * Workloads allocate VMAs (named virtual memory areas) and then touch
 * VPNs inside them. VMAs are laid out by a bump allocator with gaps
 * between them, so page tables contain mapped-but-sparse stretches —
 * the situation that makes naive linear page-table scans wasteful and
 * motivates MG-LRU's Bloom filter (paper Sec. III-B).
 */

#ifndef PAGESIM_MEM_ADDRESS_SPACE_HH
#define PAGESIM_MEM_ADDRESS_SPACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/page_table.hh"
#include "mem/types.hh"
#include "sim/rng.hh"

namespace pagesim
{

/** One virtual memory area. */
struct Vma
{
    std::string name;
    Vpn start = 0;
    std::uint64_t npages = 0;
    bool file = false;

    Vpn end() const { return start + npages; }
    bool contains(Vpn v) const { return v >= start && v < end(); }
};

/** A simulated process address space. */
class AddressSpace
{
  public:
    explicit
    AddressSpace(std::uint32_t id = 0)
        : id_(id)
    {
    }

    std::uint32_t id() const { return id_; }

    /**
     * Memory control group this space's pages are charged to (index
     * into the MemoryManager's memcg table). Every space belongs to
     * group 0 — the root memcg — unless a multi-tenant harness
     * assigns it elsewhere before the first fault.
     */
    MemcgId memcg() const { return memcg_; }
    void setMemcg(MemcgId id) { memcg_ = id; }

    /**
     * Enable per-boot address-space layout randomization: each VMA's
     * start gets an extra random page offset, so data lands at a
     * different phase within page-table regions every boot. Region-
     * granular mechanisms (MG-LRU's Bloom filter and walk clustering)
     * see a different region composition per trial — a genuine
     * run-to-run variance source on real systems that reboot between
     * executions, as the paper's methodology does.
     */
    void
    enableAslr(std::uint64_t seed)
    {
        aslrSeed_ = seed;
        aslrEnabled_ = true;
    }

    /**
     * Create a VMA of @p npages.
     *
     * @param name      debug name ("csr.edges", "heap", ...)
     * @param npages    size in pages
     * @param file      file-backed (eligible for MG-LRU tier protection)
     * @param gap_pages unmapped guard pages placed before the VMA; the
     *                  default of one region keeps VMAs region-aligned
     *                  and leaves holes for walkers to skip
     * @return the VMA's starting VPN
     */
    Vpn
    map(const std::string &name, std::uint64_t npages, bool file = false,
        std::uint64_t gap_pages = kPtesPerRegion)
    {
        // Align each VMA to a region boundary after the gap (mmap
        // regions land on fresh page-table pages), then apply the
        // ASLR page-offset slide if enabled.
        Vpn start = nextVpn_ + gap_pages;
        start = (start + kPtesPerRegion - 1) / kPtesPerRegion *
                kPtesPerRegion;
        if (aslrEnabled_) {
            aslrSeed_ = splitmix64(aslrSeed_ ^ npages);
            start += aslrSeed_ % kPtesPerRegion;
        }
        table_.growTo(start + npages);
        for (Vpn v = start; v < start + npages; ++v)
            table_.markMapped(v, file);
        vmas_.push_back(Vma{name, start, npages, file});
        nextVpn_ = start + npages;
        return start;
    }

    PageTable &table() { return table_; }
    const PageTable &table() const { return table_; }

    /** Bump-allocator cursor (checkpoint layout-replay check). */
    Vpn nextVpn() const { return nextVpn_; }

    const std::vector<Vma> &vmas() const { return vmas_; }

    /** Find the VMA containing @p vpn, or nullptr. */
    const Vma *
    findVma(Vpn vpn) const
    {
        for (const auto &vma : vmas_)
            if (vma.contains(vpn))
                return &vma;
        return nullptr;
    }

    /** Total pages across all VMAs (the footprint if fully touched). */
    std::uint64_t
    mappedPages() const
    {
        std::uint64_t n = 0;
        for (const auto &vma : vmas_)
            n += vma.npages;
        return n;
    }

    /**
     * Checkpoint the space's mutable state. The VMA layout (vmas_,
     * nextVpn_, aslrSeed_) is NOT captured: a restore target replays
     * the same workload build with the same ASLR seed, which recreates
     * it bit-identically; only the page table's contents evolve during
     * a run. nextVpn_ rides along as a cheap layout-replay check: a
     * recorded cursor other than this space's is a mismatch, refused
     * before the page table is read.
     */
    void
    visitState(StateIO &io)
    {
        io.expect(nextVpn_);
        table_.visitState(io);
    }

  private:
    // lint:state-cov-ok(construction identity; the checkpoint layer re-links spaces by this stable id)
    std::uint32_t id_;
    // lint:state-cov-ok(scenario wiring assigned during rig construction before restore)
    MemcgId memcg_ = 0;
    PageTable table_;
    // lint:state-cov-ok(layout replayed by construction; visitState validates it against the recorded nextVpn)
    std::vector<Vma> vmas_;
    Vpn nextVpn_ = 0;
    // lint:state-cov-ok(forked from the root seed at construction; the replayed layout is validated on restore)
    std::uint64_t aslrSeed_ = 0;
    // lint:state-cov-ok(construction parameter; the replayed layout is validated on restore)
    bool aslrEnabled_ = false;
};

} // namespace pagesim

#endif // PAGESIM_MEM_ADDRESS_SPACE_HH
