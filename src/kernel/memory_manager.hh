/**
 * @file
 * MemoryManager: the simulated kernel MM.
 *
 * Owns the fault-handling path, frame allocation with watermarks,
 * reclaim (background via kswapd and direct from faulting threads),
 * swap I/O orchestration (including readahead and swap-cache reuse),
 * and the wiring to the pluggable replacement policy.
 *
 * Threading model: everything here runs in event context. Application
 * actors call access() during their step(); when an access needs I/O
 * or a free frame that can't be produced synchronously, access()
 * returns Blocked after registering the actor as a waiter — the actor
 * must then block() and, once woken, retry the access.
 */

#ifndef PAGESIM_KERNEL_MEMORY_MANAGER_HH
#define PAGESIM_KERNEL_MEMORY_MANAGER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "kernel/fault_stats.hh"
#include "kernel/memcg.hh"
#include "kernel/mm_config.hh"
#include "mem/address_space.hh"
#include "metrics/fault_spans.hh"
#include "mem/frame_table.hh"
#include "policy/replacement_policy.hh"
#include "sim/actor.hh"
#include "sim/simulation.hh"
#include "swap/swap_manager.hh"
#include "trace/trace.hh"

namespace pagesim
{

class Kswapd;
class AgingDaemon;
class MetricsCollector;

/**
 * One memcg the MemoryManager should create: its watermarks plus the
 * policy instance (lruvec) scoped to it. The caller keeps ownership of
 * the policy, exactly as with the single-policy constructor.
 */
struct MemcgSpec
{
    MemcgConfig config;
    ReplacementPolicy *policy;
};

/** The simulated kernel memory manager. */
class MemoryManager
{
  public:
    /** Result of an access() call; see class comment. */
    enum class AccessOutcome
    {
        Hit,        ///< page resident; negligible cost
        MinorFault, ///< handled synchronously (demand-zero); cost charged
        SyncFault,  ///< swap-in on a synchronous device; cost charged
        Blocked,    ///< actor must block(); retry the access after wake
    };

    /**
     * Single-tenant construction: one unlimited root memcg owning
     * @p policy. Behaviorally identical to the pre-memcg manager —
     * the pinned bit-identity fingerprints run through this ctor.
     */
    MemoryManager(Simulation &sim, FrameTable &frames, SwapManager &swap,
                  ReplacementPolicy &policy, const MmConfig &config);

    /**
     * Multi-tenant construction: one memcg per spec, ids assigned in
     * order (spec i becomes memcg id i). Address spaces select their
     * group via AddressSpace::setMemcg before their first fault.
     */
    MemoryManager(Simulation &sim, FrameTable &frames, SwapManager &swap,
                  const std::vector<MemcgSpec> &specs,
                  const MmConfig &config);

    MemoryManager(const MemoryManager &) = delete;
    MemoryManager &operator=(const MemoryManager &) = delete;

    /**
     * Perform one memory access by @p actor.
     *
     * On Hit/MinorFault/SyncFault the access is complete and its CPU
     * cost has been charged to @p sink. On Blocked the actor has been
     * registered as a waiter and must block(); when woken it retries.
     *
     * The common case — present in the fast tier, accessed bit already
     * set, no readahead credit pending — has no cost to charge and no
     * flag, policy, metrics, or trace side effect, so it is resolved
     * inline here without the accessImpl dispatch. fdAccess() never
     * takes this path: resident fd hits must feed the policy's
     * use-count/tier machinery on every access.
     */
    AccessOutcome
    access(SimActor &actor, AddressSpace &space, Vpn vpn, bool is_write,
           CostSink &sink)
    {
        const auto pte = space.table().at(vpn);
        if (pte.residentHot() &&
            !frames_.info(pte.pfn()).fromReadahead) {
            if (is_write)
                pte.setFlag(Pte::Dirty);
            return AccessOutcome::Hit;
        }
        return accessImpl(actor, space, vpn, is_write, false, sink);
    }

    /**
     * A buffered-I/O (file descriptor) access: same residency handling
     * as access(), but a resident hit feeds the policy's fd-access path
     * (MG-LRU tiers) instead of setting the PTE accessed bit.
     */
    AccessOutcome fdAccess(SimActor &actor, AddressSpace &space, Vpn vpn,
                           bool is_write, CostSink &sink);

    /**
     * Reclaim one batch of pages (kswapd or direct context).
     * @return pages evicted. Clean pages free their frames
     *         immediately; dirty ones free when writeback completes.
     *
     * With one memcg this reclaims straight from its lruvec. With
     * several, the batch fans out proportionally (DESIGN.md Sec. 4g):
     * memcgs over memory.high absorb the whole batch in proportion to
     * their excess; otherwise shares follow reclaimable size
     * (usage - memory.low), so protected frames are untouched; if
     * every group hides under its protection while the machine is
     * still short (overpressure), protection is waived and shares
     * follow raw usage — the kernel's best-effort memory.low
     * semantics. The rounding remainder rotates round-robin.
     */
    std::uint32_t reclaimBatch(CostSink &sink, bool direct);

    /**
     * Balloon allocation for background/housekeeping memory: grabs up
     * to @p want frames (reclaiming if needed, cost to @p sink),
     * appending them to @p out. Balloon pages are kernel-private:
     * the replacement policy never sees them; they just shrink the
     * memory available to the workload while held.
     */
    void balloonAllocate(std::uint32_t want, std::vector<Pfn> &out,
                         CostSink &sink);

    /** Return balloon frames to the allocator. */
    void balloonRelease(const std::vector<Pfn> &pfns);

    /** Should kswapd keep reclaiming? */
    bool
    belowHighWatermark() const
    {
        return frames_.freeFrames() < config_.highWatermark;
    }

    bool
    belowLowWatermark() const
    {
        return frames_.freeFrames() < config_.lowWatermark;
    }

    /**
     * Is any memcg over its memory.high watermark? Kswapd keeps
     * reclaiming while true, so targeted high-limit pressure is
     * relieved in the background even when global free memory is
     * fine. Constant false with no high limits configured.
     */
    bool
    memcgOverHigh() const
    {
        for (const auto &m : memcgs_)
            if (m->overHigh())
                return true;
        return false;
    }

    void attachKswapd(Kswapd *kswapd) { kswapd_ = kswapd; }
    void attachAgingDaemon(AgingDaemon *aging) { aging_ = aging; }
    /** Attach a flight recorder (nullptr detaches; off by default). */
    void attachTrace(TraceBuffer *trace) { trace_ = trace; }

    /**
     * Attach a metrics collector (nullptr detaches; off by default).
     * When attached, every major fault is decomposed into a
     * latency-attribution span (see metrics/fault_spans.hh); detached,
     * each instrumentation site costs one pointer test.
     */
    void attachMetrics(MetricsCollector *metrics) { metrics_ = metrics; }

    /**
     * Functional-only fast-forward mode (checkpoint warmup). While
     * set, faults are serviced with zero simulated device detail:
     * major faults complete inline regardless of device type, dirty
     * evictions complete inline (the swap ledger still records
     * contents so a ZRAM pool stays warm), and swap readahead is
     * suppressed. The memory state — residency, policy lists, swap
     * contents — still converges to a realistic warm state; simulated
     * device time does not, which is exactly the representative-
     * interval trade (DESIGN.md Sec. 4h). Must not be toggled while
     * I/O is in flight.
     */
    void
    setFunctionalMode(bool on)
    {
        assert(writebacksInFlight_ == 0 && swapInsInFlight_ == 0);
        functional_ = on;
    }

    bool functionalMode() const { return functional_; }

    /**
     * Is the manager at a checkpointable quiescent point? True when
     * no I/O is in flight, no retry timer is armed, no actor waits on
     * a frame or an I/O, the swap device itself is idle, and no
     * metrics collector is attached (span state is not serialized).
     */
    bool
    quiescentForCheckpoint() const
    {
        return writebacksInFlight_ == 0 && swapInsInFlight_ == 0 &&
               !stallRetryArmed_ && ioWaiters_.empty() &&
               frameWaiters_.empty() && metrics_ == nullptr &&
               swap_.device().quiescent();
    }

    /**
     * Checkpoint the kernel layer: fault/tier counters, fan-out
     * cursor, readahead EMA, balloon cursor, the slow tier (frames +
     * FIFO), and every memcg (counters, usage, and its lruvec via
     * ReplacementPolicy::visitState). The fast-tier FrameTable and the
     * swap manager are serialized by the caller as their own sections.
     * Only valid at a quiescent point (see quiescentForCheckpoint()).
     * An image with another memcg count is a mismatch.
     */
    void visitState(StateIO &io);

    Simulation &sim() { return sim_; }
    FrameTable &frames() { return frames_; }
    SwapManager &swap() { return swap_; }
    /** The root memcg's policy (the single policy in legacy setups). */
    ReplacementPolicy &policy() { return memcgs_.front()->policy(); }
    const MmConfig &config() const { return config_; }
    const FaultStats &stats() const { return stats_; }

    // ---- Memory control groups --------------------------------------

    std::size_t memcgCount() const { return memcgs_.size(); }

    Memcg &
    memcg(MemcgId id)
    {
        assert(id < memcgs_.size());
        return *memcgs_[id];
    }

    const Memcg &
    memcg(MemcgId id) const
    {
        assert(id < memcgs_.size());
        return *memcgs_[id];
    }

    /** The memcg charged for @p space's pages. */
    Memcg &memcgOf(const AddressSpace &space)
    {
        return memcg(space.memcg());
    }

    /**
     * Global-reclaim rounds that pushed a memcg below its memory.low
     * protection outside of overpressure (every group protected but
     * the machine still needs memory). Must stay 0 — proportional
     * shares are capped at `usage - low` — and MmAuditor enforces it.
     */
    std::uint64_t lowBreaches() const { return lowBreaches_; }

    /** In-flight dirty writebacks (diagnostic). */
    std::uint32_t writebacksInFlight() const { return writebacksInFlight_; }

    /** In-flight async swap reads, demand and readahead (diagnostic). */
    std::uint32_t swapInsInFlight() const { return swapInsInFlight_; }

    /** Actors currently stalled waiting for a free frame. */
    std::uint32_t
    frameWaiterCount() const
    {
        return static_cast<std::uint32_t>(frameWaiters_.size());
    }

    // ---- Audit hooks (consumed by MmAuditor, src/check) -------------

    /**
     * Install a hook invoked after every config().auditEvery-th
     * reclaim batch (never when auditEvery is 0). The hook runs in
     * the reclaiming context, at a point where all cross-structure
     * state is quiescent apart from in-flight swap I/O.
     */
    void attachAuditHook(std::function<void()> hook)
    {
        auditHook_ = std::move(hook);
    }

    /** Reclaim batches completed (drives the auditEvery cadence). */
    std::uint64_t reclaimBatches() const { return reclaimBatches_; }

    /** Owner tag of balloon frames (their vpns index no page table). */
    const AddressSpace &balloonSpace() const { return balloonSpace_; }
    /** Mutable balloon space (checkpoint space-id mapping only). */
    AddressSpace &balloonSpace() { return balloonSpace_; }

    /** Demotion-order FIFO over slow-tier frames. */
    const FrameList &slowList() const { return slowList_; }

    /** Is an I/O waiter registered for (space, vpn)? */
    bool
    hasIoWaiters(const AddressSpace &space, Vpn vpn) const
    {
        auto it = ioWaiters_.find(WaitKey{&space, vpn});
        return it != ioWaiters_.end() && !it->second.empty();
    }

    /** Visit every registered I/O-waiter key (audit walk). */
    void
    forEachIoWaiter(const std::function<void(const AddressSpace &, Vpn,
                                             std::size_t)> &fn) const
    {
        for (const auto &[key, waiters] : ioWaiters_)
            fn(*key.space, key.vpn, waiters.size());
    }

    /**
     * Stable content identity for the compression model: what a page's
     * bytes hash to, derived from its (space, vpn) identity. Public so
     * the auditor can cross-check recorded swap-slot contents.
     */
    static std::uint64_t
    contentTag(const AddressSpace &space, Vpn vpn)
    {
        return (static_cast<std::uint64_t>(space.id()) << 48) ^ vpn;
    }

    /** Tiering extension counters (all zero when tiering is off). */
    const TierStats &tierStats() const { return tierStats_; }
    /** Slow-tier frame table (size 0 when tiering is off). */
    const FrameTable &slowFrames() const { return slowFrames_; }

  private:
    /**
     * Waiter-map key, ordered by (space id, vpn) — NOT by pointer
     * value, so the audit walk (forEachIoWaiter) visits waiters in the
     * same order on every run. Space ids are unique per simulation
     * (contentTag() already relies on this to name page contents).
     */
    struct WaitKey
    {
        const AddressSpace *space;
        Vpn vpn;

        bool
        operator<(const WaitKey &o) const
        {
            if (space->id() != o.space->id())
                return space->id() < o.space->id();
            return vpn < o.vpn;
        }
    };

    AccessOutcome accessImpl(SimActor &actor, AddressSpace &space,
                             Vpn vpn, bool is_write, bool fd_access,
                             CostSink &sink);

    /** The lruvec (policy) owning @p space's pages. */
    ReplacementPolicy &
    policyFor(const AddressSpace &space)
    {
        return memcgOf(space).policy();
    }

    /** The memcg a charged fast-tier frame belongs to. */
    Memcg &
    memcgOfFrame(Pfn pfn)
    {
        const MemcgId id = frames_.info(pfn).memcg;
        assert(id != kNoMemcg && "policy-visible frame not charged");
        return memcg(id);
    }

    /**
     * Run one reclaim batch of up to @p max victims against a single
     * memcg's lruvec. This is the pre-memcg reclaimBatch body: direct
     * contexts age inline, victim starvation triggers an inline aging
     * pass (poking the background walker from kswapd context), then
     * victims are evicted. Does NOT advance the batch counter — the
     * caller does, once per global batch, so the audit cadence is
     * unchanged from the singleton manager.
     */
    std::uint32_t reclaimFromLruvec(Memcg &mcg, std::uint32_t max,
                                    CostSink &sink, bool direct);

    /** Advance the batch counter and fire the periodic audit hook. */
    void finishReclaimBatch();

    /** Release @p pi's memcg charge if @p table is the fast tier. */
    void
    unchargeIfFast(FrameTable &table, PageInfoRef pi)
    {
        if (&table == &frames_)
            memcg(pi.memcg).uncharge(pi);
    }

    /**
     * Allocate a frame, direct-reclaiming if necessary. Returns
     * kInvalidPfn after registering @p actor as a frame waiter when no
     * frame can be produced synchronously.
     */
    Pfn allocFrame(SimActor &actor, AddressSpace &space, Vpn vpn,
                   bool file, CostSink &sink);

    /** Evict one victim: unmap, maybe write back, free or defer. */
    void evictPage(Pfn pfn, CostSink &sink);

    /**
     * TPP demotion: try to migrate a fast-tier victim (already
     * detached from the policy) to the slow tier. @return true if the
     * page moved (no swap I/O needed).
     */
    bool tryDemote(Pfn pfn, CostSink &sink);

    /** Make room in the slow tier by pushing its FIFO tail to swap. */
    void evictSlowPage(CostSink &sink);

    /** TPP promotion: migrate a hot slow-tier page to fast memory. */
    void tryPromote(Pfn slow_pfn, CostSink &sink);

    /** Swap out a page (shared tail of fast- and slow-tier paths). */
    void swapOutPage(FrameTable &table, Pfn pfn,
                     std::uint32_t shadow, CostSink &sink);

    /**
     * Finish a swap-in: map the frame and notify the policy.
     * @p fd_access marks a buffered-I/O (fdAccess) demand fault, which
     * must feed the policy's use-count path instead of setting the PTE
     * accessed bit.
     */
    void finishSwapIn(AddressSpace &space, Vpn vpn, SwapSlot slot,
                      Pfn pfn, ResidencyKind kind, std::uint32_t shadow,
                      bool fd_access = false);

    /** Dirty writeback completed; free or remap-to-waiter. */
    void completeWriteback(FrameTable &table, AddressSpace &space,
                           Vpn vpn, Pfn pfn, SwapSlot slot);

    /** Issue readahead around a demand fault (async devices only). */
    void issueReadahead(AddressSpace &space, Vpn vpn);

    void addIoWaiter(AddressSpace &space, Vpn vpn, SimActor &actor);
    /**
     * Wake every actor piled on (space, vpn)'s in-flight I/O, closing
     * each one's metrics io-wait span with @p phase (WritebackRemapWait
     * when the writeback-remap path resolved the wait, SharedSwapInWait
     * for a completed swap-in or readahead).
     */
    void wakeIoWaiters(AddressSpace &space, Vpn vpn, FaultPhase phase);
    void wakeFrameWaiters();
    void maybeWakeKswapd();

    Simulation &sim_;
    FrameTable &frames_;
    SwapManager &swap_;
    /** Memory control groups, indexed by MemcgId (front is root). */
    std::vector<std::unique_ptr<Memcg>> memcgs_;
    // lint:state-cov-ok(construction parameter; the restore rig is rebuilt from the same validated config)
    MmConfig config_;
    FaultStats stats_;

    /**
     * Round-robin start index for the proportional fan-out's rounding
     * remainder; advances once per global batch so no tenant is
     * persistently favored, deterministically.
     */
    std::size_t rrCursor_ = 0;
    /** See lowBreaches(). */
    std::uint64_t lowBreaches_ = 0;

    Kswapd *kswapd_ = nullptr;
    AgingDaemon *aging_ = nullptr;
    TraceBuffer *trace_ = nullptr;
    MetricsCollector *metrics_ = nullptr;

    void
    traceEmit(TraceEvent event, Vpn vpn = 0)
    {
        if (trace_ != nullptr)
            trace_->emit(sim_.now(), event, vpn);
    }

    /** Owner tag for balloon frames (never policy-visible). */
    // lint:state-cov-ok(owner tag only: balloon frames are never policy-visible and balloonVpn_ is serialized)
    AddressSpace balloonSpace_{0xBA11};
    Vpn balloonVpn_ = 0;

    /** TPP slow tier (empty when disabled). */
    FrameTable slowFrames_;
    /** Demotion-order FIFO over slow-tier frames. */
    FrameList slowList_;
    TierStats tierStats_;

    std::map<WaitKey, std::vector<SimActor *>> ioWaiters_;
    std::vector<SimActor *> frameWaiters_;
    /** A frame-stall retry timer is pending. */
    bool stallRetryArmed_ = false;
    /** Functional-only fast-forward mode (see setFunctionalMode). */
    // lint:state-cov-ok(fast-forward mode toggle owned by the harness driver, re-armed around restore)
    bool functional_ = false;
    /** EMA of readahead usefulness, drives the adaptive window. */
    double raHitRate_ = 0.5;
    // lint:state-cov-ok(reclaim-batch scratch, cleared before every use)
    std::vector<Pfn> victimScratch_;
    /** Fan-out scratch (weights/shares per memcg), reused per batch. */
    // lint:state-cov-ok(fan-out scratch, overwritten at the start of every batch)
    std::vector<std::uint64_t> weightScratch_;
    // lint:state-cov-ok(fan-out scratch, overwritten at the start of every batch)
    std::vector<std::uint32_t> shareScratch_;
    std::uint32_t writebacksInFlight_ = 0;
    std::uint32_t swapInsInFlight_ = 0;

    /** Completed reclaim batches; paces the audit hook. */
    std::uint64_t reclaimBatches_ = 0;
    std::function<void()> auditHook_;
};

} // namespace pagesim

#endif // PAGESIM_KERNEL_MEMORY_MANAGER_HH
