/**
 * @file
 * Physical frame table, per-frame metadata, and the reverse map.
 *
 * Per-frame metadata (the analogue of struct page) is one 48-byte
 * record per frame, indexed by PFN. A record holds which (address
 * space, VPN) the frame currently backs — that mapping *is* the
 * reverse map; what the policies pay for is the simulated cost of
 * walking it — plus the intrusive list linkage, the swap-cache
 * backing, the memcg charge and the policy-owned classification
 * fields (Clock's list id, MG-LRU's generation and tier).
 *
 * The fault and reclaim paths touch many fields of one frame at a
 * time (allocate resets all of them; a list move, an eviction or a
 * writeback completion reads and writes several), so one record puts
 * them on one cache line where a lane per field cost a miss each.
 * Only PFN-order streams (the auditor, the checkpoint codec) read one
 * field across many frames, and they sweep the records once (see
 * StateIO::recordLanes). `info()` hands out PageInfoRef/PageInfoView
 * proxies whose reference members preserve field-access syntax.
 *
 * Contract: the intrusive-link fields (prev/next/listId) may only be
 * mutated by FrameList — pagesim-lint's mut-pageinfo rule enforces
 * this, mirroring mut-pte for PTE flags.
 */

#ifndef PAGESIM_MEM_FRAME_TABLE_HH
#define PAGESIM_MEM_FRAME_TABLE_HH

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "mem/types.hh"
#include "sim/page_alloc.hh"
#include "sim/serialize.hh"

namespace pagesim
{

class AddressSpace;

/**
 * Mutable proxy over one frame's record ("struct page" view). Members
 * are references into FrameTable's record, so `pi.gen = seq` writes
 * the field directly; the proxy is freely copyable (copies alias the
 * same frame).
 */
struct PageInfoRef
{
    /** Owning address space; nullptr while the frame is free. */
    AddressSpace *&space;
    /** VPN this frame backs (valid while space != nullptr). */
    Vpn &vpn;

    /** Intrusive list links (frame is on at most one policy list). */
    Pfn &prev;
    Pfn &next;
    /** Which policy list the frame is on (policy-defined; 0 = none). */
    std::uint8_t &listId;

    /** MG-LRU: absolute generation sequence number. */
    std::uint64_t &gen;
    /** MG-LRU: tier within the generation (log2 of use count). */
    std::uint8_t &tier;
    /** File-backed page, 0/1 (cached from the VMA at fault time). */
    std::uint8_t &file;
    /** Brought in speculatively, 0/1; cleared on first demand access. */
    std::uint8_t &fromReadahead;

    /**
     * Swap-cache backing: slot whose contents still match this frame.
     * While valid and the PTE stays clean, eviction can drop the page
     * without writing it back (the kernel's swap-cache reuse).
     */
    SwapSlot &backing;
    /** Accesses observed since residency (drives MG-LRU tiers). */
    std::uint32_t &refs;
    /**
     * Memory control group this frame is charged to; kNoMemcg while
     * free or kernel-private (balloon). Written only by Memcg
     * charge/uncharge (pagesim-lint mut-memcg) so the field and the
     * group's usage counter cannot diverge.
     */
    MemcgId &memcg;

    bool free() const { return space == nullptr; }
};

/** Read-only counterpart of PageInfoRef (const FrameTable access). */
struct PageInfoView
{
    AddressSpace *const &space;
    const Vpn &vpn;
    const Pfn &prev;
    const Pfn &next;
    const std::uint8_t &listId;
    const std::uint64_t &gen;
    const std::uint8_t &tier;
    const std::uint8_t &file;
    const std::uint8_t &fromReadahead;
    const SwapSlot &backing;
    const std::uint32_t &refs;
    const MemcgId &memcg;

    bool free() const { return space == nullptr; }
};

/**
 * The machine's physical memory: a fixed set of frames with a free
 * list and one metadata record per frame. The records are sized once
 * at construction and never reallocate, so proxies stay valid for the
 * table's lifetime.
 */
class FrameTable
{
  public:
    explicit
    FrameTable(std::uint32_t nframes) : recs_(nframes)
    {
        std::fill(recs_.begin(), recs_.end(), kFreeRecord);
        freeList_.reserve(nframes);
        // Allocate ascending: push in reverse so pop_back yields pfn 0
        // first, giving deterministic, realistic low-to-high placement.
        for (std::uint32_t i = nframes; i > 0; --i)
            freeList_.push_back(i - 1);
    }

    std::uint32_t totalFrames() const
    {
        return static_cast<std::uint32_t>(recs_.size());
    }

    std::uint32_t freeFrames() const
    {
        return static_cast<std::uint32_t>(freeList_.size());
    }

    std::uint32_t usedFrames() const
    {
        return totalFrames() - freeFrames();
    }

    /**
     * Grab a free frame; kInvalidPfn when memory is exhausted. The
     * frame's record is reset whole for its new tenant: every field
     * starts at its default, so nothing leaks from the previous one.
     */
    Pfn
    allocate(AddressSpace *space, Vpn vpn, bool file)
    {
        if (freeList_.empty())
            return kInvalidPfn;
        const Pfn pfn = freeList_.back();
        freeList_.pop_back();
        assert(recs_[pfn].space == nullptr);
        // release() asserted the frame uncharged, so memcg is already
        // kNoMemcg; the whole-record store rewrites it all the same.
        Record r = kFreeRecord;
        r.space = space;
        r.vpn = vpn;
        r.file = file ? 1 : 0;
        recs_[pfn] = r;
        return pfn;
    }

    /** Return a frame to the free list. */
    void
    release(Pfn pfn)
    {
        Record &r = recs_[pfn];
        assert(r.space != nullptr);
        assert(r.listId == 0 && "frame still on a policy list");
        assert(r.memcg == kNoMemcg && "frame still charged");
        r.space = nullptr;
        freeList_.push_back(pfn);
    }

    PageInfoRef
    info(Pfn pfn)
    {
        assert(pfn < recs_.size());
        Record &r = recs_[pfn];
        return PageInfoRef{r.space, r.vpn,  r.prev, r.next,
                           r.listId, r.gen, r.tier, r.file,
                           r.fromReadahead, r.backing, r.refs, r.memcg};
    }

    PageInfoView
    info(Pfn pfn) const
    {
        assert(pfn < recs_.size());
        const Record &r = recs_[pfn];
        return PageInfoView{r.space, r.vpn,  r.prev, r.next,
                            r.listId, r.gen, r.tier, r.file,
                            r.fromReadahead, r.backing, r.refs, r.memcg};
    }

    /**
     * Reverse-map lookup: frame -> (space, vpn). The *information* is
     * free in the simulator; the cost of the kernel's rmap pointer
     * chase is charged separately by whoever walks it (see
     * MmCosts::rmapWalk).
     */
    PageInfoView rmap(Pfn pfn) const { return info(pfn); }

    /** Audit hook: the raw free list (order is allocator policy). */
    const std::vector<Pfn> &freeList() const { return freeList_; }

    /**
     * Checkpoint every record field, one packed lane per field in the
     * order below (StateIO::recordLanes: one sweep over the records).
     * The owner pointer travels as link-table ids. Each lane must hold
     * exactly one entry per frame of THIS table, so an image from a
     * machine of another size is a mismatch, refused by the
     * checkpoint's check pass before anything is applied. The free
     * list is captured verbatim — its ORDER is allocator state
     * (pop_back yields the next pfn).
     */
    void
    visitState(StateIO &io)
    {
        io.recordLanes(std::span<Record>(recs_),
                       StateIO::owner(&Record::space), &Record::vpn,
                       &Record::prev, &Record::next, &Record::listId,
                       &Record::gen, &Record::tier, &Record::file,
                       &Record::fromReadahead, &Record::backing,
                       &Record::refs, &Record::memcg);
        io.podVec(freeList_, recs_.size());
    }

  private:
    /**
     * One frame's metadata; see PageInfoRef for each field. No member
     * initializers: the table fills whole records from kFreeRecord.
     */
    struct Record
    {
        AddressSpace *space;
        Vpn vpn;
        std::uint64_t gen;
        Pfn prev;
        Pfn next;
        SwapSlot backing;
        std::uint32_t refs;
        MemcgId memcg;
        std::uint8_t listId;
        std::uint8_t tier;
        std::uint8_t file;
        std::uint8_t fromReadahead;
    };
    static_assert(sizeof(Record) == 48, "one record per 48 bytes");

    /** A free frame's record, and the reset base of an allocated one. */
    static constexpr Record kFreeRecord{nullptr,     0,       0, kInvalidPfn,
                                        kInvalidPfn, kInvalidSlot, 0, kNoMemcg,
                                        0,           0,       0, 0};

    std::vector<Record, PageMappedAllocator<Record, true>> recs_;
    std::vector<Pfn> freeList_;
};

/**
 * Intrusive doubly-linked list over frames.
 *
 * Uses the prev/next/listId fields, so membership moves are O(1) — the
 * property the paper leans on when arguing generation-count increases
 * are cheap ("moving page metadata between generation lists is an O(1)
 * operation", Sec. V-B). A frame may be on at most one FrameList; the
 * @p list_id tags membership for debugging and policy queries.
 */
class FrameList
{
  public:
    FrameList(FrameTable &frames, std::uint8_t list_id)
        : frames_(&frames), listId_(list_id)
    {
        assert(list_id != 0);
    }

    std::uint64_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    Pfn head() const { return head_; }
    Pfn tail() const { return tail_; }
    std::uint8_t listId() const { return listId_; }

    /** Add to the head (most-recently-used end). */
    void
    pushFront(Pfn pfn)
    {
        const PageInfoRef pi = frames_->info(pfn);
        assert(pi.listId == 0);
        pi.listId = listId_;
        pi.prev = kInvalidPfn;
        pi.next = head_;
        if (head_ != kInvalidPfn)
            frames_->info(head_).prev = pfn;
        head_ = pfn;
        if (tail_ == kInvalidPfn)
            tail_ = pfn;
        ++size_;
    }

    /** Add to the tail (least-recently-used end). */
    void
    pushBack(Pfn pfn)
    {
        const PageInfoRef pi = frames_->info(pfn);
        assert(pi.listId == 0);
        pi.listId = listId_;
        pi.next = kInvalidPfn;
        pi.prev = tail_;
        if (tail_ != kInvalidPfn)
            frames_->info(tail_).next = pfn;
        tail_ = pfn;
        if (head_ == kInvalidPfn)
            head_ = pfn;
        ++size_;
    }

    /** Remove an arbitrary member. */
    void
    remove(Pfn pfn)
    {
        const PageInfoRef pi = frames_->info(pfn);
        assert(pi.listId == listId_);
        if (pi.prev != kInvalidPfn)
            frames_->info(pi.prev).next = pi.next;
        else
            head_ = pi.next;
        if (pi.next != kInvalidPfn)
            frames_->info(pi.next).prev = pi.prev;
        else
            tail_ = pi.prev;
        pi.prev = pi.next = kInvalidPfn;
        pi.listId = 0;
        --size_;
    }

    /** Remove and return the tail; kInvalidPfn if empty. */
    Pfn
    popBack()
    {
        if (tail_ == kInvalidPfn)
            return kInvalidPfn;
        const Pfn pfn = tail_;
        remove(pfn);
        return pfn;
    }

    /** Remove and return the head; kInvalidPfn if empty. */
    Pfn
    popFront()
    {
        if (head_ == kInvalidPfn)
            return kInvalidPfn;
        const Pfn pfn = head_;
        remove(pfn);
        return pfn;
    }

    /** True if @p pfn is currently a member of *this* list. */
    bool
    contains(Pfn pfn) const
    {
        return frames_->info(pfn).listId == listId_;
    }

    /** Outcome of an auditWalk() over the intrusive links. */
    struct WalkCheck
    {
        /** Members reached walking head -> tail. */
        std::uint64_t count = 0;
        /** Links, listId tags, and head/tail anchors all coherent. */
        bool linksOk = true;
        /** First frame at which corruption was observed. */
        Pfn firstBad = kInvalidPfn;
    };

    /**
     * Audit hook: walk head -> tail via the intrusive next pointers,
     * verifying each member's listId tag and prev back-pointer, that
     * the walk terminates at tail(), and that it does so within
     * totalFrames() hops (cycle guard). Does not touch size_, so a
     * size/membership divergence is observable by comparing the
     * returned count against size().
     */
    WalkCheck
    auditWalk() const
    {
        WalkCheck wc;
        Pfn prev = kInvalidPfn;
        Pfn cur = head_;
        const std::uint64_t cap = frames_->totalFrames();
        while (cur != kInvalidPfn) {
            if (wc.count >= cap) {
                // More hops than frames exist: a cycle.
                wc.linksOk = false;
                wc.firstBad = cur;
                return wc;
            }
            const PageInfoRef pi = frames_->info(cur);
            if (pi.listId != listId_ || pi.prev != prev) {
                wc.linksOk = false;
                wc.firstBad = cur;
                return wc;
            }
            ++wc.count;
            prev = cur;
            cur = pi.next;
        }
        if (tail_ != prev) {
            wc.linksOk = false;
            wc.firstBad = tail_;
        }
        return wc;
    }

    /**
     * Checkpoint the list anchors. The member links live in the
     * FrameTable records (captured by FrameTable::visitState); only the
     * head/tail/size anchors are per-list state.
     */
    void
    visitState(StateIO &io)
    {
        io.u32(head_);
        io.u32(tail_);
        io.u64(size_);
    }

  private:
    FrameTable *frames_;
    // lint:state-cov-ok(registration identity assigned at construction, not run state)
    std::uint8_t listId_;
    Pfn head_ = kInvalidPfn;
    Pfn tail_ = kInvalidPfn;
    std::uint64_t size_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_MEM_FRAME_TABLE_HH
