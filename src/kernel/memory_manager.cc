#include "kernel/memory_manager.hh"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "kernel/aging_daemon.hh"
#include "kernel/kswapd.hh"
#include "metrics/collector.hh"

namespace pagesim
{

MemoryManager::MemoryManager(Simulation &sim, FrameTable &frames,
                             SwapManager &swap,
                             const std::vector<MemcgSpec> &specs,
                             const MmConfig &config)
    : sim_(sim), frames_(frames), swap_(swap), config_(config),
      slowFrames_(config.tier.slowFrames), slowList_(slowFrames_, 1)
{
    assert(!specs.empty());
    memcgs_.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        assert(specs[i].policy != nullptr);
        memcgs_.push_back(std::make_unique<Memcg>(
            static_cast<MemcgId>(i), specs[i].config,
            *specs[i].policy));
    }
    victimScratch_.reserve(config_.reclaimBatch);
    weightScratch_.reserve(specs.size());
    shareScratch_.reserve(specs.size());
}

MemoryManager::AccessOutcome
MemoryManager::fdAccess(SimActor &actor, AddressSpace &space, Vpn vpn,
                        bool is_write, CostSink &sink)
{
    return accessImpl(actor, space, vpn, is_write, true, sink);
}

MemoryManager::AccessOutcome
MemoryManager::accessImpl(SimActor &actor, AddressSpace &space, Vpn vpn,
                          bool is_write, bool fd_access, CostSink &sink)
{
    const auto pte = space.table().at(vpn);
    assert(pte.mapped() && "access outside any VMA");

    if (pte.present() && pte.slow()) {
        // TPP slow tier: mapped but remote — no fault, just latency,
        // and a promotion counter.
        ++tierStats_.slowHits;
        sink.charge(config_.tier.slowAccessLatency);
        space.table().setAccessed(vpn);
        if (is_write)
            pte.setFlag(Pte::Dirty);
        const auto pi = slowFrames_.info(pte.pfn());
        if (++pi.refs >= config_.tier.promoteThreshold)
            tryPromote(pte.pfn(), sink);
        return AccessOutcome::Hit;
    }

    if (pte.present()) {
        const auto pi = frames_.info(pte.pfn());
        if (pi.fromReadahead) {
            // First demand use of a speculative page: readahead hit.
            pi.fromReadahead = false;
            ++stats_.readaheadHits;
            if (metrics_) {
                metrics_->spans().instant(
                    InstantEvent::ReadaheadHit, sim_.now(), vpn,
                    metrics_->trackFor(actor));
            }
            raHitRate_ += config_.readaheadEma * (1.0 - raHitRate_);
        }
        if (fd_access) {
            // Buffered I/O: no PTE accessed bit; the policy tracks use
            // counts / tiers instead.
            policyFor(space).onFdAccess(pte.pfn());
        } else {
            space.table().setAccessed(vpn);
        }
        if (is_write) {
            pte.setFlag(Pte::Dirty);
        }
        return AccessOutcome::Hit;
    }

    if (pte.inIo()) {
        // Swap-in or writeback already in flight for this page; wait
        // for it rather than issuing duplicate I/O.
        ++stats_.ioWaitFaults;
        ++memcgOf(space).stats().ioWaitFaults;
        if (metrics_) {
            metrics_->spans().openIoWait(
                actor, vpn, sim_.now(), metrics_->trackFor(actor));
        }
        addIoWaiter(space, vpn, actor);
        return AccessOutcome::Blocked;
    }

    if (!pte.swapped()) {
        // First touch: demand-zero minor fault.
        const Pfn pfn = allocFrame(actor, space, vpn, pte.file(), sink);
        if (pfn == kInvalidPfn)
            return AccessOutcome::Blocked;
        sink.charge(config_.costs.faultFixed);
        ++stats_.minorFaults;
        ++memcgOf(space).stats().minorFaults;
        space.table().mapFrame(vpn, pfn);
        policyFor(space).onPageResident(pfn, ResidencyKind::NewAnon, 0);
        if (fd_access) {
            // Buffered I/O leaves no PTE accessed bit behind; the
            // policy's use-count path is the only signal.
            policyFor(space).onFdAccess(pfn);
        } else {
            space.table().setAccessed(vpn);
        }
        if (is_write)
            pte.setFlag(Pte::Dirty);
        return AccessOutcome::MinorFault;
    }

    // Major fault: bring the page back from swap.
    // Span attribution: any direct-reclaim work allocFrame runs inline
    // is CPU charged to this fault's context — measure it as the sink
    // delta across the allocation.
    const SimDuration sinkBefore = metrics_ ? sink.total() : 0;
    const Pfn pfn = allocFrame(actor, space, vpn, pte.file(), sink);
    if (pfn == kInvalidPfn)
        return AccessOutcome::Blocked;
    const SimDuration reclaimCpu =
        metrics_ ? sink.total() - sinkBefore : 0;
    sink.charge(config_.costs.faultFixed);
    ++stats_.majorFaults;
    ++memcgOf(space).stats().majorFaults;
    const SwapSlot slot = pte.swapSlot();
    const std::uint32_t shadow = pte.shadow();
    SwapDevice &dev = swap_.device();

    if (dev.synchronous()) {
        // ZRAM-style: the faulting thread decompresses on-CPU.
        const SimDuration devCpu = dev.cpuCost(slot, false);
        sink.charge(devCpu);
        dev.noteSyncOp(slot, false);
        if (metrics_) {
            metrics_->spans().recordSyncDemand(
                sim_.now(), vpn,
                metrics_->trackFor(actor), reclaimCpu,
                devCpu);
        }
        finishSwapIn(space, vpn, slot, pfn, ResidencyKind::SwapInDemand,
                     shadow, fd_access);
        if (is_write)
            pte.setFlag(Pte::Dirty);
        return AccessOutcome::SyncFault;
    }

    // Block-device swap: async read; the actor waits for completion.
    pte.setFlag(Pte::InIo);
    addIoWaiter(space, vpn, actor);
    ++swapInsInFlight_;
    DemandReadTag tag{DemandReadTag::kNoSpan, fd_access};
    if (metrics_) {
        const std::uint32_t token = metrics_->spans().openDemand(
            sim_.now(), vpn, metrics_->trackFor(actor),
            reclaimCpu);
        assert(token < DemandReadTag::kNoSpan);
        tag.spanToken = token;
    }
    dev.submit(slot, false,
               [this, pfn, tag] { completeDemandRead(pfn, tag); });
    issueReadahead(space, vpn);
    return AccessOutcome::Blocked;
}

Pfn
MemoryManager::allocFrame(SimActor &actor, AddressSpace &space, Vpn vpn,
                          bool file, CostSink &sink)
{
    Memcg &mcg = memcgOf(space);
    if (mcg.atMax()) {
        // memory.max: the allocating task reclaims its OWN lruvec
        // inline before the charge may proceed — limit-reclaim
        // latency lands on this tenant's faults and nobody else's.
        // The charge below goes through even if every victim is
        // stuck under writeback (usage uncharges when the frame
        // frees), so a brief overshoot stands in for the OOM path
        // pagesim does not model.
        ++stats_.directReclaims;
        ++mcg.stats().directReclaims;
        reclaimFromLruvec(mcg, config_.reclaimBatch, sink, true);
        finishReclaimBatch();
    }
    if (frames_.freeFrames() <= config_.directReclaimBelow) {
        // Global watermark pressure: the allocating task reclaims
        // inline (fanning out across memcgs when there are several).
        ++stats_.directReclaims;
        ++mcg.stats().directReclaims;
        reclaimBatch(sink, true);
    }
    Pfn pfn = frames_.allocate(&space, vpn, file);
    if (pfn == kInvalidPfn) {
        // Out of frames even after the inline batch (all victims
        // under writeback): one more attempt, then stall.
        ++stats_.directReclaims;
        ++mcg.stats().directReclaims;
        reclaimBatch(sink, true);
        pfn = frames_.allocate(&space, vpn, file);
        if (pfn == kInvalidPfn) {
            // Everything reclaimable is under writeback (or the policy
            // is waiting on aging); stall until a frame frees up. This
            // is the paper's tail scenario where demand faults wait on
            // disk writes (Sec. VI-A). A timed retry guards against
            // the no-writeback-in-flight case where no completion will
            // ever wake us.
            ++stats_.allocStalls;
            // One instant per stall BURST (first waiter), not per
            // stalling fault: tens of thousands of faults pile up
            // during a storm, and the per-fault signal is already
            // carried by the alloc-stall counter and the sampled
            // mm.alloc_stall_rate and mm.alloc_stall_depth series.
            if (metrics_ && frameWaiters_.empty()) {
                metrics_->spans().instant(
                    InstantEvent::AllocStall, sim_.now(), vpn,
                    metrics_->trackFor(actor));
            }
            frameWaiters_.push_back(&actor);
            maybeWakeKswapd();
            // Arm one retry timer for the whole waiter list. It must
            // NOT wake the actor directly: by firing time the actor
            // may be blocked on something else entirely (a barrier, a
            // different I/O), and a stray wake would break that wait.
            // Actors still on frameWaiters_ are, by construction,
            // still frame-blocked.
            if (!stallRetryArmed_) {
                stallRetryArmed_ = true;
                sim_.events().scheduleAfter(
                    config_.allocStallRetry, [this] {
                        stallRetryArmed_ = false;
                        wakeFrameWaiters();
                    });
            }
            return kInvalidPfn;
        }
    }
    mcg.charge(frames_.info(pfn));
    if (mcg.overHigh()) {
        // memory.high: the charge succeeds, but the allocator is
        // throttled and background reclaim is pointed at the excess.
        ++mcg.stats().throttleEvents;
        sink.charge(config_.memcgHighThrottle);
        if (kswapd_)
            kswapd_->wake();
    }
    maybeWakeKswapd();
    return pfn;
}

void
MemoryManager::balloonAllocate(std::uint32_t want,
                               std::vector<Pfn> &out, CostSink &sink)
{
    for (std::uint32_t i = 0; i < want; ++i) {
        Pfn pfn = frames_.allocate(&balloonSpace_, balloonVpn_++,
                                   false);
        if (pfn == kInvalidPfn) {
            // Housekeeping allocations reclaim like anyone else, but
            // give up rather than stall.
            reclaimBatch(sink, true);
            pfn = frames_.allocate(&balloonSpace_, balloonVpn_++,
                                   false);
            if (pfn == kInvalidPfn)
                break;
        }
        out.push_back(pfn);
    }
    maybeWakeKswapd();
}

void
MemoryManager::balloonRelease(const std::vector<Pfn> &pfns)
{
    for (const Pfn pfn : pfns)
        frames_.release(pfn);
    if (!pfns.empty())
        wakeFrameWaiters();
}

void
MemoryManager::maybeWakeKswapd()
{
    if (kswapd_ && belowLowWatermark())
        kswapd_->wake();
}

std::uint32_t
MemoryManager::reclaimFromLruvec(Memcg &mcg, std::uint32_t max,
                                 CostSink &sink, bool direct)
{
    ReplacementPolicy &policy = mcg.policy();
    victimScratch_.clear();
    if (direct && policy.wantsAging()) {
        // Aging runs in reclaim contexts (try_to_inc_max_seq); under
        // a cgroup limit that reclaim context is the faulting task,
        // which therefore pays the page-table walk — the largest
        // latency quantum MG-LRU injects into fault paths.
        ++stats_.directAging;
        policy.age(sink);
    }
    std::size_t n = policy.selectVictims(victimScratch_, max, sink);
    if (n == 0 && policy.wantsAging()) {
        // Starved for victims: reclaim context runs aging inline
        // (shrink_*/try_to_inc_max_seq behavior), and the background
        // walker is poked for the next round.
        ++stats_.directAging;
        if (!direct && aging_)
            aging_->wake();
        policy.age(sink);
        n = policy.selectVictims(victimScratch_, max, sink);
    }
    mcg.stats().evictions += victimScratch_.size();
    for (const Pfn pfn : victimScratch_)
        evictPage(pfn, sink);
    return static_cast<std::uint32_t>(n);
}

void
MemoryManager::finishReclaimBatch()
{
    ++reclaimBatches_;
    if (auditHook_ && config_.auditEvery != 0 &&
        reclaimBatches_ % config_.auditEvery == 0) {
        auditHook_();
    }
}

std::uint32_t
MemoryManager::reclaimBatch(CostSink &sink, bool direct)
{
    std::uint32_t freed = 0;
    if (memcgs_.size() == 1) {
        // Single root group: straight lruvec reclaim, byte-identical
        // to the singleton manager.
        freed = reclaimFromLruvec(*memcgs_[0], config_.reclaimBatch,
                                  sink, direct);
        finishReclaimBatch();
        return freed;
    }

    // Proportional fan-out (see the header comment). Pick weights:
    // targeted memory.high excess first, else reclaimable size
    // (usage - memory.low), else — overpressure — raw usage with
    // protection waived.
    const std::size_t n = memcgs_.size();
    weightScratch_.assign(n, 0);
    bool anyHigh = false;
    for (std::size_t i = 0; i < n; ++i)
        anyHigh = anyHigh || memcgs_[i]->overHigh();
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        weightScratch_[i] = anyHigh ? memcgs_[i]->excessHigh()
                                    : memcgs_[i]->reclaimable();
        sum += weightScratch_[i];
    }
    bool overpressure = false;
    if (sum == 0) {
        overpressure = true;
        for (std::size_t i = 0; i < n; ++i)
            weightScratch_[i] = memcgs_[i]->usage();
    }

    shareScratch_ = distributeProportional(
        weightScratch_, config_.reclaimBatch, rrCursor_);
    rrCursor_ = (rrCursor_ + 1) % n;

    for (std::size_t i = 0; i < n; ++i) {
        Memcg &m = *memcgs_[i];
        if (shareScratch_[i] == 0) {
            // Usage entirely behind memory.low (and no high excess):
            // this round deliberately left the group alone.
            if (!overpressure && !anyHigh && m.usage() > 0 &&
                m.reclaimable() == 0)
                ++m.stats().protectedSkips;
            continue;
        }
        freed += reclaimFromLruvec(m, shareScratch_[i], sink, direct);
        if (!overpressure && m.config().hasLow() &&
            m.usage() < m.config().low)
            ++lowBreaches_;
    }
    finishReclaimBatch();
    return freed;
}

void
MemoryManager::evictPage(Pfn pfn, CostSink &sink)
{
    assert(!frames_.info(pfn).free());
    const std::uint32_t shadow =
        memcgOfFrame(pfn).policy().onPageRemoved(pfn);
    if (config_.tier.enabled() && tryDemote(pfn, sink))
        return;
    swapOutPage(frames_, pfn, shadow, sink);
}

bool
MemoryManager::tryDemote(Pfn pfn, CostSink &sink)
{
    const auto fast = frames_.info(pfn);
    AddressSpace &space = *fast.space;
    const Vpn vpn = fast.vpn;

    Pfn spfn = slowFrames_.allocate(&space, vpn, fast.file);
    if (spfn == kInvalidPfn) {
        // Make room: push the slow tier's FIFO tail toward swap.
        evictSlowPage(sink);
        spfn = slowFrames_.allocate(&space, vpn, fast.file);
        if (spfn == kInvalidPfn)
            return false; // slow frames all under writeback: swap out
    }

    sink.charge(config_.tier.migrateCost);
    slowFrames_.info(spfn).backing = fast.backing;
    const auto pte = space.table().at(vpn);
    assert(pte.present());
    // The page stays mapped; it just lives behind the slow tier now
    // (present -> present, so residency bookkeeping is unchanged).
    space.table().mapFrame(vpn, spfn);
    pte.setFlag(Pte::Slow);
    slowList_.pushFront(spfn);
    fast.backing = kInvalidSlot;
    // Demoted pages leave the fast tier's accounting; slow-tier
    // occupancy is tracked by tierStats, not memcg usage.
    memcg(fast.memcg).uncharge(fast);
    frames_.release(pfn);
    wakeFrameWaiters();
    ++tierStats_.demotions;
    return true;
}

void
MemoryManager::evictSlowPage(CostSink &sink)
{
    const Pfn victim = slowList_.popBack();
    if (victim == kInvalidPfn)
        return;
    ++tierStats_.slowEvictions;
    // Slow-tier pages are not policy-tracked: no shadow.
    swapOutPage(slowFrames_, victim, 0, sink);
}

void
MemoryManager::tryPromote(Pfn slow_pfn, CostSink &sink)
{
    const auto slow = slowFrames_.info(slow_pfn);
    AddressSpace &space = *slow.space;
    const Vpn vpn = slow.vpn;
    const Pfn fast = frames_.allocate(&space, vpn, slow.file);
    if (fast == kInvalidPfn) {
        // Promotion is opportunistic (TPP promotes into headroom);
        // signal pressure and try again on a later access.
        maybeWakeKswapd();
        return;
    }
    sink.charge(config_.tier.migrateCost);
    memcgOf(space).charge(frames_.info(fast));
    frames_.info(fast).backing = slow.backing;
    space.table().mapFrame(vpn, fast); // clears the Slow flag
    space.table().setAccessed(vpn);
    slowList_.remove(slow_pfn);
    slowFrames_.release(slow_pfn);
    policyFor(space).onPageResident(fast, ResidencyKind::SwapInDemand, 0);
    ++tierStats_.promotions;
    maybeWakeKswapd();
}

void
MemoryManager::swapOutPage(FrameTable &table, Pfn pfn,
                           std::uint32_t shadow, CostSink &sink)
{
    const auto pi = table.info(pfn);
    assert(!pi.free());
    AddressSpace &space = *pi.space;
    const Vpn vpn = pi.vpn;
    const auto pte = space.table().at(vpn);
    assert(pte.present() && pte.pfn() == pfn);

    const bool dirty = pte.dirty();
    SwapSlot slot = pi.backing;
    const bool need_write = dirty || slot == kInvalidSlot;
    if (slot == kInvalidSlot) {
        slot = swap_.allocate();
        if (slot == kInvalidSlot) {
            std::fprintf(stderr,
                         "pagesim: swap area exhausted (%u slots)\n",
                         swap_.maxSlots());
            std::abort();
        }
    }

    space.table().unmapToSwap(vpn, slot, shadow);
    ++stats_.evictions;

    if (!need_write) {
        // Clean page whose swap copy is still valid: drop without I/O.
        ++stats_.cleanDrops;
        pi.backing = kInvalidSlot;
        unchargeIfFast(table, pi);
        table.release(pfn);
        wakeFrameWaiters();
        return;
    }

    ++stats_.dirtyWritebacks;
    SwapDevice &dev = swap_.device();
    if (dev.synchronous()) {
        // ZRAM: compression is CPU work in the reclaiming context.
        // Record the slot's new contents BEFORE deriving the CPU cost:
        // compression effort depends on the page being compressed, not
        // on whatever the slot held previously.
        swap_.recordContents(slot, contentTag(space, vpn));
        sink.charge(dev.cpuCost(slot, true));
        dev.noteSyncOp(slot, true);
        pi.backing = kInvalidSlot;
        unchargeIfFast(table, pi);
        table.release(pfn);
        wakeFrameWaiters();
        return;
    }

    // Async writeback: the frame stays busy until the write lands.
    pte.setFlag(Pte::InIo);
    ++writebacksInFlight_;
    const bool slow = &table == &slowFrames_;
    dev.submit(slot, true,
               [this, pfn, slow] { completeWriteback(pfn, slow); });
}

void
MemoryManager::completeDemandRead(Pfn pfn, DemandReadTag tag)
{
    const auto pi = frames_.info(pfn);
    assert(pi.space != nullptr);
    AddressSpace &space = *pi.space;
    const Vpn vpn = pi.vpn;
    const auto pte = space.table().at(vpn);
    assert(pte.swapped() && pte.inIo());
    --swapInsInFlight_;
    if (metrics_ && tag.spanToken != DemandReadTag::kNoSpan) {
        const SwapDevice &d = swap_.device();
        metrics_->spans().closeDemand(tag.spanToken, sim_.now(),
                                      d.lastOpQueueWait(),
                                      d.lastOpService());
    }
    finishSwapIn(space, vpn, pte.swapSlot(), pfn,
                 ResidencyKind::SwapInDemand, pte.shadow(),
                 tag.fdAccess != 0);
    // Any other fault that piled onto this in-flight read shared its
    // I/O; their waits close as they wake.
    wakeIoWaiters(space, vpn, FaultPhase::SharedSwapInWait);
}

void
MemoryManager::completeReadahead(Pfn pfn)
{
    const auto pi = frames_.info(pfn);
    assert(pi.space != nullptr);
    AddressSpace &space = *pi.space;
    const Vpn vpn = pi.vpn;
    const auto pte = space.table().at(vpn);
    assert(pte.swapped() && pte.inIo());
    --swapInsInFlight_;
    finishSwapIn(space, vpn, pte.swapSlot(), pfn,
                 ResidencyKind::SwapInReadahead, pte.shadow());
    pi.fromReadahead = true;
    // Demand faults that landed on this in-flight readahead shared its
    // I/O; their waits close as they wake.
    wakeIoWaiters(space, vpn, FaultPhase::SharedSwapInWait);
}

void
MemoryManager::finishSwapIn(AddressSpace &space, Vpn vpn, SwapSlot slot,
                            Pfn pfn, ResidencyKind kind,
                            std::uint32_t shadow, bool fd_access)
{
    const auto pte = space.table().at(vpn);
    assert(pte.swapped() || pte.inIo());
    space.table().mapFrame(vpn, pfn);
    pte.clearShadow();
    const auto pi = frames_.info(pfn);
    // Keep the swap copy: if the page stays clean, eviction is free.
    pi.backing = slot;
    policyFor(space).onPageResident(pfn, kind, shadow);
    if (kind == ResidencyKind::SwapInDemand) {
        if (fd_access) {
            // Buffered I/O leaves no PTE accessed bit behind; the
            // policy's use-count path is the only signal (the rule
            // MG-LRU's tier machinery depends on).
            policyFor(space).onFdAccess(pfn);
        } else {
            space.table().setAccessed(vpn);
        }
    } else if (kind == ResidencyKind::SwapInReadahead) {
        ++stats_.readaheadReads;
    }
}

void
MemoryManager::completeWriteback(Pfn pfn, bool slow)
{
    FrameTable &table = slow ? slowFrames_ : frames_;
    const auto pi = table.info(pfn);
    assert(!pi.free());
    AddressSpace &space = *pi.space;
    const Vpn vpn = pi.vpn;
    const auto pte = space.table().at(vpn);
    assert(pte.swapped() && pte.inIo());
    const SwapSlot slot = pte.swapSlot();
    assert(writebacksInFlight_ > 0);
    --writebacksInFlight_;
    swap_.recordContents(slot, contentTag(space, vpn));

    pte.clearFlag(Pte::InIo);

    const bool waited =
        std::any_of(ioWaiters_.begin(), ioWaiters_.end(),
                    [&](const IoWaiter &w) {
                        return w.space == &space && w.vpn == vpn;
                    });
    if (waited) {
        // The page was re-wanted while under writeback; the frame
        // still holds its data, so remap instead of freeing
        // (swap-cache reuse). The waiter already counted an
        // ioWaitFault when it blocked, so only writebackRemaps is
        // incremented here — counting a minor fault too would inflate
        // the fault totals the fig benches report.
        ++stats_.writebackRemaps;
        const std::uint32_t shadow = pte.shadow();
        if (slow) {
            // Slow-tier page: restore slow residency (not
            // policy-tracked), back on the demotion FIFO.
            space.table().mapFrame(vpn, pfn);
            pte.setFlag(Pte::Slow);
            space.table().setAccessed(vpn);
            pte.clearShadow();
            pi.backing = slot;
            pi.refs = 0;
            slowList_.pushFront(pfn);
        } else {
            finishSwapIn(space, vpn, slot, pfn,
                         ResidencyKind::SwapInDemand, shadow);
        }
        wakeIoWaiters(space, vpn, FaultPhase::WritebackRemapWait);
        return;
    }

    pi.backing = kInvalidSlot;
    unchargeIfFast(table, pi);
    table.release(pfn);
    wakeFrameWaiters();
}

void
MemoryManager::issueReadahead(AddressSpace &space, Vpn vpn)
{
    if (config_.readaheadPages <= 1)
        return;
    Memcg &mcg = memcgOf(space);
    if (mcg.atMax())
        return; // no speculative charges against a hard limit
    SwapDevice &dev = swap_.device();
    assert(!dev.synchronous());
    // Adaptive window: scale the cluster by the observed hit rate so
    // random-access patterns stop polluting memory.
    const auto window = static_cast<std::uint32_t>(
        1.0 + raHitRate_ *
                  static_cast<double>(config_.readaheadPages - 1) +
        0.5);
    std::uint32_t issued = 1; // the demand page
    for (std::uint32_t i = 1;
         i <= config_.readaheadWindow && issued < window;
         ++i) {
        const Vpn v2 = vpn + i;
        if (v2 >= space.table().span())
            break;
        const auto p2 = space.table().at(v2);
        if (!p2.mapped())
            break; // end of the VMA
        if (!p2.swapped() || p2.inIo())
            continue;
        // Readahead must not trigger reclaim: only use spare frames.
        if (frames_.freeFrames() <= config_.lowWatermark)
            break;
        const Pfn f2 = frames_.allocate(&space, v2, p2.file());
        if (f2 == kInvalidPfn)
            break;
        mcg.charge(frames_.info(f2));
        const SwapSlot s2 = p2.swapSlot();
        p2.setFlag(Pte::InIo);
        ++issued;
        ++swapInsInFlight_;
        // Every issue decays the hit-rate estimate; demand hits on
        // speculative pages push it back up.
        raHitRate_ -= config_.readaheadEma * raHitRate_;
        // Speculative readahead burns no thread CPU by design: the
        // device models its own service time, and demand faults that
        // land on this in-flight slot charge their wait in handleFault
        // when they block on the shared I/O.
        dev.submit(s2, false, [this, f2] { completeReadahead(f2); });
    }
}

void
MemoryManager::addIoWaiter(AddressSpace &space, Vpn vpn, SimActor &actor)
{
    ioWaiters_.push_back(IoWaiter{&space, vpn, &actor});
}

void
MemoryManager::wakeIoWaiters(AddressSpace &space, Vpn vpn,
                             FaultPhase phase)
{
    // Take the page's waiters out in registration order (the others
    // keep theirs) before waking any, so a wake cannot see them.
    assert(wakeScratch_.empty());
    std::erase_if(ioWaiters_, [&](const IoWaiter &w) {
        if (w.space != &space || w.vpn != vpn)
            return false;
        wakeScratch_.push_back(w.actor);
        return true;
    });
    for (SimActor *actor : wakeScratch_) {
        if (metrics_)
            metrics_->spans().closeIoWait(*actor, sim_.now(), phase);
        actor->wake();
    }
    wakeScratch_.clear();
}

void
MemoryManager::forEachIoWaiter(
    const std::function<void(const AddressSpace &, Vpn, std::size_t)> &fn)
    const
{
    std::vector<IoWaiter> keys = ioWaiters_;
    std::sort(keys.begin(), keys.end(),
              [](const IoWaiter &a, const IoWaiter &b) {
                  if (a.space->id() != b.space->id())
                      return a.space->id() < b.space->id();
                  return a.vpn < b.vpn;
              });
    for (std::size_t i = 0; i < keys.size();) {
        std::size_t j = i + 1;
        while (j < keys.size() && keys[j].space == keys[i].space &&
               keys[j].vpn == keys[i].vpn)
            ++j;
        fn(*keys[i].space, keys[i].vpn, j - i);
        i = j;
    }
}

void
MemoryManager::wakeFrameWaiters()
{
    if (frameWaiters_.empty())
        return;
    std::vector<SimActor *> waiters = std::move(frameWaiters_);
    frameWaiters_.clear();
    for (SimActor *actor : waiters)
        actor->wake();
}

void
MemoryManager::visitState(StateIO &io)
{
    assert(quiescentForCheckpoint());
    io.u64(stats_.majorFaults);
    io.u64(stats_.minorFaults);
    io.u64(stats_.ioWaitFaults);
    io.u64(stats_.evictions);
    io.u64(stats_.dirtyWritebacks);
    io.u64(stats_.cleanDrops);
    io.u64(stats_.writebackRemaps);
    io.u64(stats_.readaheadReads);
    io.u64(stats_.readaheadHits);
    io.u64(stats_.directReclaims);
    io.u64(stats_.directAging);
    io.u64(stats_.allocStalls);
    io.u64(rrCursor_);
    io.u64(lowBreaches_);
    io.u64(balloonVpn_);
    io.f64(raHitRate_);
    io.u64(reclaimBatches_);
    io.u64(tierStats_.demotions);
    io.u64(tierStats_.promotions);
    io.u64(tierStats_.slowHits);
    io.u64(tierStats_.slowEvictions);
    slowFrames_.visitState(io);
    slowList_.visitState(io);
    io.expect(static_cast<std::uint32_t>(memcgs_.size()));
    for (auto &m : memcgs_)
        m->visitState(io);
}

} // namespace pagesim
