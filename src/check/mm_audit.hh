/**
 * @file
 * MmAuditor: the cross-layer MM invariant auditor.
 *
 * The simulator's fidelity rests on bookkeeping that spans four
 * structures that must agree at all times: PTE bits, the frame tables'
 * reverse map, the replacement policy's lists, and the swap manager's
 * slot ledger (plus ZRAM's compressed-pool contents). A bug in any one
 * seam silently skews the counters the fig benches report. The auditor
 * walks all of them and asserts the full invariant catalog:
 *
 *  PTE side (every mapped VPN of every audited space):
 *   - a Present, non-Slow PTE maps a live fast-tier frame whose
 *     (space, vpn) back-pointer matches;
 *   - a Present, Slow PTE maps a live slow-tier frame (back-pointer
 *     matching) that sits on the demotion FIFO and on no policy list;
 *   - a Swapped PTE's slot is allocated, and no two pages share a
 *     slot; under ZRAM the slot holds recorded contents whose tag
 *     matches the page's identity;
 *   - an InIo PTE is Swapped, is claimed by exactly one in-transit
 *     frame, and has either a registered I/O waiter or an in-flight
 *     writeback/readahead (writebacksInFlight_ + swapInsInFlight_
 *     reconcile with the total InIo population);
 *   - the present/accessed/mapped bitmap words mirror their PTEs'
 *     flags, and each region's summary bit is set exactly when one
 *     of its PTEs is present.
 *
 *  Frame side (both frame tables):
 *   - free frames are exactly the free list (no duplicates, no frame
 *     on a list); every live frame's page points back at it (or is
 *     legitimately in transit under swap I/O); balloon frames are
 *     never policy-visible;
 *   - every swap-cache backing slot is allocated and owned by the
 *     frame's page alone.
 *
 *  Policy side:
 *   - every FrameList's intrusive links are coherent and its walked
 *     membership equals size();
 *   - MG-LRU: resident_ equals the sum of the generation lists, every
 *     page's gen lies in [minSeq, maxSeq], and the resident population
 *     equals the Present fast-tier PTE count;
 *   - Clock: active_ + inactive_ equals the Present fast-tier PTE
 *     count and the per-frame list tags agree with membership.
 *
 *  Memcg side:
 *   - every memcg's usage() equals a recount of the fast-tier frames
 *     charged to it; live workload frames carry exactly their space's
 *     group in the memcg lane; free and balloon frames are uncharged;
 *   - each lruvec's resident population equals its own group's
 *     Present fast-tier PTE count, and the shared listId tag counters
 *     equal the sum across same-kind lruvecs;
 *   - memory.low protection is never breached by the proportional
 *     fan-out (MemoryManager::lowBreaches() stays 0).
 *
 *  Swap side:
 *   - the slot ledger balances (used == high-water - free), free
 *     slots are unique and unreferenced, and no allocated slot is
 *     leaked (allocated but referenced by no PTE or frame);
 *   - ZRAM: recomputed pool occupancy equals poolBytes(), and every
 *     recorded slot is allocated.
 *
 * Violations come back as a structured AuditReport. For tests and CI,
 * installPeriodic() arranges an audit every MmConfig::auditEvery
 * reclaim batches, printing the report and (in hard-fail mode)
 * aborting on the first violation.
 */

#ifndef PAGESIM_CHECK_MM_AUDIT_HH
#define PAGESIM_CHECK_MM_AUDIT_HH

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "check/audit_report.hh"
#include "kernel/memory_manager.hh"

namespace pagesim
{

class ClockLru;
class MgLruPolicy;

/** Walks the whole MM state and checks the invariant catalog. */
class MmAuditor
{
  public:
    /**
     * @param mm     the memory manager under audit
     * @param spaces every address space whose pages @p mm manages
     *               (balloon frames are recognized automatically)
     */
    MmAuditor(MemoryManager &mm,
              std::vector<const AddressSpace *> spaces);

    MmAuditor(const MmAuditor &) = delete;
    MmAuditor &operator=(const MmAuditor &) = delete;

    /** Run one full audit pass and return its report. */
    AuditReport audit();

    /**
     * Attach this auditor to the memory manager's reclaim path: an
     * audit runs every MmConfig::auditEvery reclaim batches (set
     * auditEvery before calling; 0 leaves the hook dormant). Any
     * violation prints the report to stderr; with @p hard_fail the
     * process then aborts — the mode the test harnesses and the
     * sanitizer CI lane run under.
     */
    void installPeriodic(bool hard_fail);

    /** Audit passes completed over this auditor's lifetime. */
    std::uint64_t auditsRun() const { return auditsRun_; }
    /** Total violations across all passes. */
    std::uint64_t violationsSeen() const { return violationsSeen_; }

  private:
    /** Cross-layer state gathered by the PTE walk, consumed later. */
    struct WalkContext
    {
        /** Owner of a swap-slot reference. */
        struct SlotOwner
        {
            const AddressSpace *space;
            Vpn vpn;
            const char *via; ///< "pte" or "frame-backing"
        };

        std::unordered_map<SwapSlot, std::vector<SlotOwner>> slotRefs;
        /** (space, vpn) of every InIo PTE, for frame-claim matching. */
        std::vector<std::pair<const AddressSpace *, Vpn>> inIoPtes;
        /** In-transit frames keyed by the page they are carrying. */
        std::unordered_map<const void *,
                           std::unordered_map<Vpn, unsigned>>
            frameClaims;
        std::uint64_t presentFastPtes = 0;
        std::uint64_t presentSlowPtes = 0;
        std::uint64_t slowResidentFrames = 0;
        std::uint64_t fastListTagged[256] = {};
        /** Present fast-tier PTEs per memcg (from the PTE walk). */
        std::vector<std::uint64_t> presentFastByMemcg;
        /** Charged-frame recount per memcg (from the frame walk). */
        std::vector<std::uint64_t> chargedByMemcg;
    };

    void addViolation(AuditReport &rep, AuditSubsystem subsystem,
                      const char *invariant, std::uint32_t space_id,
                      Vpn vpn, Pfn pfn, std::string expected,
                      std::string actual) const;

    void checkPtes(AuditReport &rep, WalkContext &ctx) const;
    void checkFastFrames(AuditReport &rep, WalkContext &ctx) const;
    void checkSlowTier(AuditReport &rep, WalkContext &ctx) const;
    void checkPolicy(AuditReport &rep, WalkContext &ctx) const;
    /**
     * Audit one lruvec against its own memcg's PTE population
     * (@p want_resident) and accumulate its shared listId tag totals;
     * the tag lanes are checked as sums across same-kind lruvecs by
     * checkPolicy since all Clock (resp. MG-LRU) instances stamp the
     * same listId values.
     */
    void checkLruvec(AuditReport &rep, const ReplacementPolicy &policy,
                     std::uint64_t want_resident, const FrameTable &fast,
                     std::uint64_t &mg_tagged,
                     std::uint64_t &clock_active_sum,
                     std::uint64_t &clock_inactive_sum, bool &any_mg,
                     bool &any_clock) const;
    void checkMemcgs(AuditReport &rep, WalkContext &ctx) const;
    void checkSwap(AuditReport &rep, WalkContext &ctx) const;
    void checkWaiters(AuditReport &rep, WalkContext &ctx) const;

    void checkFrameList(AuditReport &rep, AuditSubsystem subsystem,
                        const char *which, const FrameList &list) const;

    void recordSlotRef(WalkContext &ctx, SwapSlot slot,
                       const AddressSpace *space, Vpn vpn,
                       const char *via) const;

    bool knownSpace(const AddressSpace *space) const;

    MemoryManager &mm_;
    std::vector<const AddressSpace *> spaces_;
    std::unordered_set<const AddressSpace *> spaceSet_;

    std::uint64_t auditsRun_ = 0;
    std::uint64_t violationsSeen_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_CHECK_MM_AUDIT_HH
