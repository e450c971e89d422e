#include "check/mm_audit.hh"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <utility>

#include "policy/clock_lru.hh"
#include "policy/mglru/mglru_policy.hh"
#include "swap/zram_device.hh"

namespace pagesim
{

namespace
{

std::string
flagString(PteView pte)
{
    std::string s;
    const auto add = [&s](bool on, const char *name) {
        if (!on)
            return;
        if (!s.empty())
            s += '|';
        s += name;
    };
    add(pte.present(), "Present");
    add(pte.accessed(), "Accessed");
    add(pte.dirty(), "Dirty");
    add(pte.swapped(), "Swapped");
    add(pte.mapped(), "Mapped");
    add(pte.file(), "File");
    add(pte.inIo(), "InIo");
    add(pte.slow(), "Slow");
    if (s.empty())
        s = "none";
    return s;
}

std::string
ownerString(const AddressSpace *space, Vpn vpn)
{
    return "(space " + std::to_string(space->id()) + ", vpn " +
           std::to_string(vpn) + ")";
}

} // namespace

MmAuditor::MmAuditor(MemoryManager &mm,
                     std::vector<const AddressSpace *> spaces)
    : mm_(mm), spaces_(std::move(spaces))
{
    for (const AddressSpace *s : spaces_)
        spaceSet_.insert(s);
}

bool
MmAuditor::knownSpace(const AddressSpace *space) const
{
    return spaceSet_.count(space) != 0;
}

void
MmAuditor::addViolation(AuditReport &rep, AuditSubsystem subsystem,
                        const char *invariant, std::uint32_t space_id,
                        Vpn vpn, Pfn pfn, std::string expected,
                        std::string actual) const
{
    AuditViolation v;
    v.subsystem = subsystem;
    v.invariant = invariant;
    v.spaceId = space_id;
    v.vpn = vpn;
    v.pfn = pfn;
    v.expected = std::move(expected);
    v.actual = std::move(actual);
    rep.violations.push_back(std::move(v));
}

void
MmAuditor::recordSlotRef(WalkContext &ctx, SwapSlot slot,
                         const AddressSpace *space, Vpn vpn,
                         const char *via) const
{
    ctx.slotRefs[slot].push_back(WalkContext::SlotOwner{space, vpn, via});
}

AuditReport
MmAuditor::audit()
{
    AuditReport rep;
    rep.auditSeq = ++auditsRun_;
    WalkContext ctx;
    ctx.presentFastByMemcg.assign(mm_.memcgCount(), 0);
    ctx.chargedByMemcg.assign(mm_.memcgCount(), 0);
    checkPtes(rep, ctx);
    checkFastFrames(rep, ctx);
    checkSlowTier(rep, ctx);
    checkPolicy(rep, ctx);
    checkMemcgs(rep, ctx);
    checkSwap(rep, ctx);
    checkWaiters(rep, ctx);
    violationsSeen_ += rep.violations.size();
    return rep;
}

void
MmAuditor::installPeriodic(bool hard_fail)
{
    mm_.attachAuditHook([this, hard_fail] {
        const AuditReport rep = audit();
        if (rep.clean())
            return;
        std::fputs(rep.toString().c_str(), stderr);
        std::fflush(stderr);
        if (hard_fail)
            std::abort();
    });
}

void
MmAuditor::checkPtes(AuditReport &rep, WalkContext &ctx) const
{
    const FrameTable &fast = mm_.frames();
    const FrameTable &slow = mm_.slowFrames();
    const SwapManager &swap = mm_.swap();
    const ZramSwapDevice *zram = swap.zram();

    // One walk in (space, vpn) order, so every report lists its PTE
    // violations in the same order.
    for (const AddressSpace *sp : spaces_) {
        const PageTable &pt = sp->table();
        std::uint64_t spaceFast = 0;
        for (std::uint64_t r = 0; r < pt.numRegions(); ++r) {
            bool present = false;
            // Recounted bitmap words, accumulated from PTE flags during
            // the same walk and compared word-for-word below.
            std::array<std::uint64_t, PageTable::kWordsPerRegion>
                expPresent{}, expAccessed{}, expMapped{};
            const Vpn base = r * kPtesPerRegion;
            for (Vpn vpn = base; vpn < base + kPtesPerRegion; ++vpn) {
                const auto pte = pt.at(vpn);
                ++rep.ptesWalked;
                const std::uint64_t w = (vpn - base) / 64;
                const std::uint64_t bit = 1ull << (vpn % 64);
                if (pte.mapped())
                    expMapped[w] |= bit;
                if (pte.present()) {
                    present = true;
                    expPresent[w] |= bit;
                }
                if (pte.accessed())
                    expAccessed[w] |= bit;

                // Flag-combination sanity first; a PTE with an illegal
                // combination is not interpreted further.
                if (!pte.mapped()) {
                    if (pte.present() || pte.swapped() || pte.inIo() ||
                        pte.slow()) {
                        addViolation(rep, AuditSubsystem::Pte,
                                     "state-on-unmapped-pte", sp->id(),
                                     vpn, kInvalidPfn,
                                     "no residency/swap state outside "
                                     "a VMA",
                                     flagString(pte));
                    }
                    continue;
                }
                if (pte.present() && pte.swapped()) {
                    addViolation(rep, AuditSubsystem::Pte,
                                 "present-and-swapped", sp->id(), vpn,
                                 kInvalidPfn,
                                 "Present and Swapped mutually "
                                 "exclusive",
                                 flagString(pte));
                    continue;
                }
                if (pte.inIo() && !pte.swapped()) {
                    addViolation(rep, AuditSubsystem::Pte,
                                 "inio-without-swapped", sp->id(), vpn,
                                 kInvalidPfn,
                                 "InIo only while Swapped (swap I/O "
                                 "in flight)",
                                 flagString(pte));
                    continue;
                }
                if (pte.slow() && !pte.present()) {
                    addViolation(rep, AuditSubsystem::Pte,
                                 "slow-without-present", sp->id(), vpn,
                                 kInvalidPfn,
                                 "Slow implies Present",
                                 flagString(pte));
                    continue;
                }

                if (pte.present() && !pte.slow()) {
                    ++spaceFast;
                    const Pfn pfn = pte.pfn();
                    if (pfn >= fast.totalFrames()) {
                        addViolation(rep, AuditSubsystem::Pte,
                                     "present-pfn-out-of-range",
                                     sp->id(), vpn, pfn,
                                     "pfn < " +
                                         std::to_string(
                                             fast.totalFrames()),
                                     std::to_string(pfn));
                        continue;
                    }
                    const auto pi = fast.info(pfn);
                    if (pi.free() || pi.space != sp || pi.vpn != vpn) {
                        addViolation(
                            rep, AuditSubsystem::Pte,
                            "present-rmap-mismatch", sp->id(), vpn,
                            pfn,
                            "frame back-pointer " +
                                ownerString(sp, vpn),
                            pi.free() ? std::string("free frame")
                                      : ownerString(pi.space, pi.vpn));
                    }
                    // MemoryManager::access() resolves a hit on an
                    // Accessed fast PTE without reading the frame, so
                    // such a frame must hold no readahead credit.
                    if (pte.accessed() && pi.fromReadahead) {
                        addViolation(
                            rep, AuditSubsystem::Pte,
                            "readahead-credit-on-accessed-pte",
                            sp->id(), vpn, pfn,
                            "fromReadahead 0 under an Accessed PTE",
                            "fromReadahead 1");
                    }
                } else if (pte.present() && pte.slow()) {
                    ++ctx.presentSlowPtes;
                    const Pfn pfn = pte.pfn();
                    if (pfn >= slow.totalFrames()) {
                        addViolation(rep, AuditSubsystem::SlowTier,
                                     "slow-pfn-out-of-range", sp->id(),
                                     vpn, pfn,
                                     "pfn < " +
                                         std::to_string(
                                             slow.totalFrames()),
                                     std::to_string(pfn));
                        continue;
                    }
                    const auto pi = slow.info(pfn);
                    if (pi.free() || pi.space != sp || pi.vpn != vpn) {
                        addViolation(
                            rep, AuditSubsystem::SlowTier,
                            "slow-rmap-mismatch", sp->id(), vpn, pfn,
                            "slow-frame back-pointer " +
                                ownerString(sp, vpn),
                            pi.free() ? std::string("free frame")
                                      : ownerString(pi.space, pi.vpn));
                    }
                } else if (pte.swapped()) {
                    const SwapSlot slot = pte.swapSlot();
                    recordSlotRef(ctx, slot, sp, vpn, "pte");
                    if (!swap.slotAllocated(slot)) {
                        addViolation(rep, AuditSubsystem::Swap,
                                     "swapped-slot-not-allocated",
                                     sp->id(), vpn, kInvalidPfn,
                                     "allocated swap slot",
                                     "slot " + std::to_string(slot) +
                                         " free or never allocated");
                    } else if (zram != nullptr && !pte.inIo()) {
                        // Under writeback the slot's contents are only
                        // recorded at completion; settled slots must
                        // hold exactly this page's bytes.
                        std::uint64_t tag = 0;
                        const std::uint64_t want =
                            MemoryManager::contentTag(*sp, vpn);
                        if (!zram->hasSlotTag(slot, &tag)) {
                            addViolation(
                                rep, AuditSubsystem::Zram,
                                "swapped-slot-untagged", sp->id(), vpn,
                                kInvalidPfn,
                                "recorded contents for slot " +
                                    std::to_string(slot),
                                "no content tag");
                        } else if (tag != want) {
                            addViolation(
                                rep, AuditSubsystem::Zram,
                                "swapped-slot-tag-mismatch", sp->id(),
                                vpn, kInvalidPfn,
                                "tag " + std::to_string(want),
                                "tag " + std::to_string(tag));
                        }
                    }
                    if (pte.inIo())
                        ctx.inIoPtes.emplace_back(sp, vpn);
                }
            }


            // Bitmap <-> PTE coherence: every tracked bit must mirror
            // its PTE's flag, word for word. The scan fast paths read
            // these words instead of the PTEs, so a desync here means
            // scans and reality have silently diverged.
            struct WordCheck
            {
                const char *invariant;
                const std::uint64_t *expected;
                std::uint64_t actual;
                std::uint64_t word;
            };
            for (std::uint64_t w = 0; w < PageTable::kWordsPerRegion;
                 ++w) {
                const WordCheck checks[] = {
                    {"present-bitmap-mismatch", &expPresent[w],
                     pt.presentWord(r, w), w},
                    {"accessed-bitmap-mismatch", &expAccessed[w],
                     pt.accessedWord(r, w), w},
                    {"mapped-bitmap-mismatch", &expMapped[w],
                     pt.mappedWord(r, w), w},
                };
                for (const WordCheck &c : checks) {
                    if (*c.expected == c.actual)
                        continue;
                    addViolation(rep, AuditSubsystem::Pte, c.invariant,
                                 sp->id(), base + w * 64, kInvalidPfn,
                                 "word " + std::to_string(c.word) +
                                     " = " +
                                     std::to_string(*c.expected) +
                                     " (PTE recount)",
                                 std::to_string(c.actual));
                }
            }
            if (pt.anyPresent(r) != present) {
                addViolation(rep, AuditSubsystem::Pte,
                             "present-summary-mismatch", sp->id(), base,
                             kInvalidPfn,
                             present ? "summary bit set"
                                     : "summary bit clear",
                             pt.anyPresent(r) ? "set" : "clear");
            }
        }
        ctx.presentFastPtes += spaceFast;
        if (sp->memcg() < ctx.presentFastByMemcg.size())
            ctx.presentFastByMemcg[sp->memcg()] += spaceFast;
    }
}

void
MmAuditor::checkFastFrames(AuditReport &rep, WalkContext &ctx) const
{
    const FrameTable &fast = mm_.frames();

    std::unordered_set<Pfn> freeSet;
    for (const Pfn pfn : fast.freeList()) {
        if (!freeSet.insert(pfn).second) {
            addViolation(rep, AuditSubsystem::Frame,
                         "free-list-duplicate",
                         AuditViolation::kNoSpace,
                         AuditViolation::kNoVpn, pfn,
                         "each free frame listed once",
                         "duplicate free-list entry");
        }
    }

    for (Pfn pfn = 0; pfn < fast.totalFrames(); ++pfn) {
        const auto pi = fast.info(pfn);
        ++rep.framesWalked;
        const bool onFreeList = freeSet.count(pfn) != 0;
        if (pi.free() != onFreeList) {
            addViolation(rep, AuditSubsystem::Frame,
                         "free-list-membership",
                         AuditViolation::kNoSpace,
                         AuditViolation::kNoVpn, pfn,
                         pi.free() ? "free frame on the free list"
                                   : "live frame off the free list",
                         pi.free() ? "free frame missing from free list"
                                   : "live frame on the free list");
            continue;
        }
        if (pi.free()) {
            if (pi.listId != 0) {
                addViolation(rep, AuditSubsystem::Frame,
                             "free-frame-on-list",
                             AuditViolation::kNoSpace,
                             AuditViolation::kNoVpn, pfn,
                             "free frame on no policy list",
                             "listId " + std::to_string(pi.listId));
            }
            if (pi.memcg != kNoMemcg) {
                addViolation(rep, AuditSubsystem::Memcg,
                             "free-frame-charged",
                             AuditViolation::kNoSpace,
                             AuditViolation::kNoVpn, pfn,
                             "free frame uncharged",
                             "charged to memcg " +
                                 std::to_string(pi.memcg));
            }
            continue;
        }

        if (pi.space == &mm_.balloonSpace()) {
            // Balloon frames are kernel-private: the policy never sees
            // them, so a list tag here means a policy leak.
            if (pi.listId != 0) {
                addViolation(rep, AuditSubsystem::Frame,
                             "balloon-frame-policy-visible",
                             mm_.balloonSpace().id(), pi.vpn, pfn,
                             "balloon frame on no policy list",
                             "listId " + std::to_string(pi.listId));
            }
            // Balloon memory is kernel-internal: charging it to a
            // tenant would shrink that tenant's budget for pages it
            // never owned.
            if (pi.memcg != kNoMemcg) {
                addViolation(rep, AuditSubsystem::Memcg,
                             "balloon-frame-charged",
                             mm_.balloonSpace().id(), pi.vpn, pfn,
                             "balloon frame uncharged",
                             "charged to memcg " +
                                 std::to_string(pi.memcg));
            }
            continue;
        }
        if (!knownSpace(pi.space)) {
            addViolation(rep, AuditSubsystem::Frame,
                         "frame-unknown-space",
                         AuditViolation::kNoSpace, pi.vpn, pfn,
                         "back-pointer into an audited address space",
                         "unknown AddressSpace");
            continue;
        }

        const AddressSpace &sp = *pi.space;
        // Charge-lane coherence: every live workload frame is charged
        // to exactly its space's memcg (kernel charge stickiness). The
        // recount counts by LANE, so a usage/lane desync in either
        // direction is caught by checkMemcgs.
        if (pi.memcg != kNoMemcg &&
            pi.memcg < ctx.chargedByMemcg.size())
            ++ctx.chargedByMemcg[pi.memcg];
        if (pi.memcg == kNoMemcg) {
            addViolation(rep, AuditSubsystem::Memcg, "frame-uncharged",
                         sp.id(), pi.vpn, pfn,
                         "live workload frame charged to memcg " +
                             std::to_string(sp.memcg()),
                         "uncharged");
        } else if (pi.memcg != sp.memcg()) {
            addViolation(rep, AuditSubsystem::Memcg,
                         "frame-memcg-mismatch", sp.id(), pi.vpn, pfn,
                         "charged to memcg " +
                             std::to_string(sp.memcg()) +
                             " (owning space's group)",
                         "charged to memcg " +
                             std::to_string(pi.memcg));
        }
        if (pi.vpn >= sp.table().span()) {
            addViolation(rep, AuditSubsystem::Frame,
                         "frame-vpn-out-of-table", sp.id(), pi.vpn,
                         pfn,
                         "vpn < " + std::to_string(sp.table().span()),
                         std::to_string(pi.vpn));
            continue;
        }
        const auto pte = sp.table().at(pi.vpn);
        if (pte.present() && !pte.slow() && pte.pfn() == pfn) {
            ++ctx.fastListTagged[pi.listId];
        } else if (pte.swapped() && pte.inIo()) {
            // In transit: an async swap-in filling this frame, or a
            // dirty writeback draining it. Either way the policy must
            // not be tracking the frame.
            if (pi.listId != 0) {
                addViolation(rep, AuditSubsystem::Frame,
                             "in-transit-frame-on-list", sp.id(),
                             pi.vpn, pfn,
                             "in-transit frame on no policy list",
                             "listId " + std::to_string(pi.listId));
            }
            ++ctx.frameClaims[static_cast<const void *>(pi.space)]
                             [pi.vpn];
        } else {
            addViolation(rep, AuditSubsystem::Frame,
                         "frame-rmap-mismatch", sp.id(), pi.vpn, pfn,
                         "PTE mapping this frame, or swap I/O in "
                         "flight",
                         "PTE flags " + flagString(pte) +
                             (pte.present()
                                  ? ", pfn " +
                                        std::to_string(pte.pfn())
                                  : std::string()));
        }

        if (pi.backing != kInvalidSlot)
            recordSlotRef(ctx, pi.backing, pi.space, pi.vpn,
                          "frame-backing");
    }
}

void
MmAuditor::checkSlowTier(AuditReport &rep, WalkContext &ctx) const
{
    const FrameTable &slow = mm_.slowFrames();
    if (slow.totalFrames() == 0) {
        if (ctx.presentSlowPtes != 0) {
            addViolation(rep, AuditSubsystem::SlowTier,
                         "slow-ptes-without-slow-tier",
                         AuditViolation::kNoSpace,
                         AuditViolation::kNoVpn, kInvalidPfn,
                         "no Slow PTEs while tiering is off",
                         std::to_string(ctx.presentSlowPtes) +
                             " Slow PTEs");
        }
        return;
    }

    const FrameList &fifo = mm_.slowList();
    std::unordered_set<Pfn> freeSet(slow.freeList().begin(),
                                    slow.freeList().end());

    for (Pfn pfn = 0; pfn < slow.totalFrames(); ++pfn) {
        const auto pi = slow.info(pfn);
        ++rep.framesWalked;
        if (pi.free()) {
            if (freeSet.count(pfn) == 0) {
                addViolation(rep, AuditSubsystem::SlowTier,
                             "slow-free-list-membership",
                             AuditViolation::kNoSpace,
                             AuditViolation::kNoVpn, pfn,
                             "free slow frame on the free list",
                             "missing from free list");
            }
            continue;
        }
        if (!knownSpace(pi.space)) {
            addViolation(rep, AuditSubsystem::SlowTier,
                         "slow-frame-unknown-space",
                         AuditViolation::kNoSpace, pi.vpn, pfn,
                         "back-pointer into an audited address space",
                         "unknown AddressSpace");
            continue;
        }
        const AddressSpace &sp = *pi.space;
        if (pi.vpn >= sp.table().span()) {
            addViolation(rep, AuditSubsystem::SlowTier,
                         "slow-frame-vpn-out-of-table", sp.id(),
                         pi.vpn, pfn,
                         "vpn < " + std::to_string(sp.table().span()),
                         std::to_string(pi.vpn));
            continue;
        }
        const auto pte = sp.table().at(pi.vpn);
        if (pte.present() && pte.slow() && pte.pfn() == pfn) {
            ++ctx.slowResidentFrames;
            // Slow-tier pages are never policy-tracked; their only
            // list is the demotion FIFO.
            if (pi.listId != fifo.listId()) {
                addViolation(rep, AuditSubsystem::SlowTier,
                             "slow-frame-off-fifo", sp.id(), pi.vpn,
                             pfn,
                             "resident slow frame on the demotion "
                             "FIFO (listId " +
                                 std::to_string(fifo.listId()) + ")",
                             "listId " + std::to_string(pi.listId));
            }
        } else if (pte.swapped() && pte.inIo()) {
            if (pi.listId != 0) {
                addViolation(rep, AuditSubsystem::SlowTier,
                             "slow-in-transit-on-list", sp.id(),
                             pi.vpn, pfn,
                             "in-transit slow frame on no list",
                             "listId " + std::to_string(pi.listId));
            }
            ++ctx.frameClaims[static_cast<const void *>(pi.space)]
                             [pi.vpn];
        } else {
            addViolation(rep, AuditSubsystem::SlowTier,
                         "slow-frame-rmap-mismatch", sp.id(), pi.vpn,
                         pfn,
                         "Slow PTE mapping this frame, or swap I/O "
                         "in flight",
                         "PTE flags " + flagString(pte));
        }

        if (pi.backing != kInvalidSlot)
            recordSlotRef(ctx, pi.backing, pi.space, pi.vpn,
                          "frame-backing");
    }

    checkFrameList(rep, AuditSubsystem::SlowTier, "slowList", fifo);
    if (fifo.size() != ctx.slowResidentFrames) {
        addViolation(rep, AuditSubsystem::SlowTier,
                     "slow-fifo-size-mismatch",
                     AuditViolation::kNoSpace, AuditViolation::kNoVpn,
                     kInvalidPfn,
                     std::to_string(ctx.slowResidentFrames) +
                         " resident slow frames",
                     "slowList size " + std::to_string(fifo.size()));
    }
    if (ctx.presentSlowPtes != ctx.slowResidentFrames) {
        addViolation(rep, AuditSubsystem::SlowTier,
                     "slow-pte-frame-count-mismatch",
                     AuditViolation::kNoSpace, AuditViolation::kNoVpn,
                     kInvalidPfn,
                     std::to_string(ctx.slowResidentFrames) +
                         " resident slow frames",
                     std::to_string(ctx.presentSlowPtes) +
                         " Slow PTEs");
    }
}

void
MmAuditor::checkPolicy(AuditReport &rep, WalkContext &ctx) const
{
    const FrameTable &fast = mm_.frames();

    // Every instance of a policy kind shares its listId tags, so the
    // global fastListTagged counters are checked against SUMS across
    // same-kind lruvecs; structural list checks and resident-vs-PTE
    // counts run per lruvec (the per-memcg PTE populations from the
    // walk). Single-memcg setups reduce to the pre-memcg checks.
    std::uint64_t mgTagged = 0;
    std::uint64_t clockActiveSum = 0;
    std::uint64_t clockInactiveSum = 0;
    bool anyMg = false;
    bool anyClock = false;

    for (MemcgId id = 0; id < mm_.memcgCount(); ++id) {
        const ReplacementPolicy &policy = mm_.memcg(id).policy();
        const std::uint64_t wantResident =
            id < ctx.presentFastByMemcg.size()
                ? ctx.presentFastByMemcg[id]
                : 0;
        checkLruvec(rep, policy, wantResident, fast, mgTagged,
                    clockActiveSum, clockInactiveSum, anyMg, anyClock);
    }

    if (anyMg &&
        ctx.fastListTagged[MgLruPolicy::kListId] != mgTagged) {
        addViolation(rep, AuditSubsystem::Policy,
                     "mglru-tagged-frames-mismatch",
                     AuditViolation::kNoSpace, AuditViolation::kNoVpn,
                     kInvalidPfn,
                     std::to_string(mgTagged) +
                         " frames tagged listId " +
                         std::to_string(MgLruPolicy::kListId) +
                         " (sum over MG-LRU lruvecs)",
                     std::to_string(
                         ctx.fastListTagged[MgLruPolicy::kListId]) +
                         " tagged");
    }
    if (anyClock) {
        if (ctx.fastListTagged[ClockLru::kActiveListId] !=
            clockActiveSum) {
            addViolation(
                rep, AuditSubsystem::Policy,
                "clock-active-tag-mismatch",
                AuditViolation::kNoSpace, AuditViolation::kNoVpn,
                kInvalidPfn,
                std::to_string(clockActiveSum) +
                    " frames tagged active (sum over Clock lruvecs)",
                std::to_string(
                    ctx.fastListTagged[ClockLru::kActiveListId]) +
                    " tagged");
        }
        if (ctx.fastListTagged[ClockLru::kInactiveListId] !=
            clockInactiveSum) {
            addViolation(
                rep, AuditSubsystem::Policy,
                "clock-inactive-tag-mismatch",
                AuditViolation::kNoSpace, AuditViolation::kNoVpn,
                kInvalidPfn,
                std::to_string(clockInactiveSum) +
                    " frames tagged inactive (sum over Clock lruvecs)",
                std::to_string(
                    ctx.fastListTagged[ClockLru::kInactiveListId]) +
                    " tagged");
        }
    }
}

void
MmAuditor::checkLruvec(AuditReport &rep,
                       const ReplacementPolicy &policy,
                       std::uint64_t want_resident,
                       const FrameTable &fast, std::uint64_t &mg_tagged,
                       std::uint64_t &clock_active_sum,
                       std::uint64_t &clock_inactive_sum, bool &any_mg,
                       bool &any_clock) const
{
    if (const auto *mg = dynamic_cast<const MgLruPolicy *>(&policy)) {
        any_mg = true;
        mg_tagged += mg->residentPages();
        std::uint64_t sum = 0;
        for (std::uint64_t seq = mg->minSeq(); seq <= mg->maxSeq();
             ++seq) {
            const FrameList &gl = mg->genListAt(seq);
            checkFrameList(rep, AuditSubsystem::Policy, "genList", gl);
            sum += gl.size();
            // Membership: every page's recorded generation must be
            // live and must resolve back to this very list.
            Pfn cur = gl.head();
            std::uint64_t hops = 0;
            while (cur != kInvalidPfn &&
                   hops++ < fast.totalFrames()) {
                const auto pi = fast.info(cur);
                if (pi.gen < mg->minSeq() || pi.gen > mg->maxSeq()) {
                    addViolation(rep, AuditSubsystem::Policy,
                                 "gen-out-of-range",
                                 AuditViolation::kNoSpace, pi.vpn, cur,
                                 "gen in [" +
                                     std::to_string(mg->minSeq()) +
                                     ", " +
                                     std::to_string(mg->maxSeq()) +
                                     "]",
                                 "gen " + std::to_string(pi.gen));
                } else if (&mg->genListAt(pi.gen) != &gl) {
                    addViolation(rep, AuditSubsystem::Policy,
                                 "gen-list-mismatch",
                                 AuditViolation::kNoSpace, pi.vpn, cur,
                                 "page on the list of its own "
                                 "generation",
                                 "on list of seq " +
                                     std::to_string(seq) +
                                     ", gen says " +
                                     std::to_string(pi.gen));
                }
                cur = pi.next;
            }
        }
        if (sum != mg->residentPages()) {
            addViolation(rep, AuditSubsystem::Policy,
                         "mglru-resident-sum-mismatch",
                         AuditViolation::kNoSpace,
                         AuditViolation::kNoVpn, kInvalidPfn,
                         "resident_ == sum of generation lists (" +
                             std::to_string(mg->residentPages()) + ")",
                         "lists sum to " + std::to_string(sum));
        }
        if (mg->residentPages() != want_resident) {
            addViolation(rep, AuditSubsystem::Policy,
                         "policy-resident-vs-ptes",
                         AuditViolation::kNoSpace,
                         AuditViolation::kNoVpn, kInvalidPfn,
                         std::to_string(want_resident) +
                             " present fast-tier PTEs in this "
                             "lruvec's memcg",
                         "policy tracks " +
                             std::to_string(mg->residentPages()));
        }
    } else if (const auto *clock =
                   dynamic_cast<const ClockLru *>(&policy)) {
        any_clock = true;
        clock_active_sum += clock->activeSize();
        clock_inactive_sum += clock->inactiveSize();
        checkFrameList(rep, AuditSubsystem::Policy, "active",
                       clock->activeList());
        checkFrameList(rep, AuditSubsystem::Policy, "inactive",
                       clock->inactiveList());
        if (clock->activeSize() + clock->inactiveSize() !=
            want_resident) {
            addViolation(rep, AuditSubsystem::Policy,
                         "policy-resident-vs-ptes",
                         AuditViolation::kNoSpace,
                         AuditViolation::kNoVpn, kInvalidPfn,
                         std::to_string(want_resident) +
                             " present fast-tier PTEs in this "
                             "lruvec's memcg",
                         "active " +
                             std::to_string(clock->activeSize()) +
                             " + inactive " +
                             std::to_string(clock->inactiveSize()));
        }
    }
}

void
MmAuditor::checkMemcgs(AuditReport &rep, WalkContext &ctx) const
{
    for (MemcgId id = 0; id < mm_.memcgCount(); ++id) {
        const Memcg &m = mm_.memcg(id);
        const std::uint64_t counted =
            id < ctx.chargedByMemcg.size() ? ctx.chargedByMemcg[id]
                                           : 0;
        // usage() and the memcg lane only move together inside
        // charge()/uncharge(); a divergence means a charge was
        // skipped, duplicated, or mispaired somewhere in the MM.
        if (m.usage() != counted) {
            addViolation(rep, AuditSubsystem::Memcg,
                         "memcg-usage-mismatch",
                         AuditViolation::kNoSpace,
                         AuditViolation::kNoVpn, kInvalidPfn,
                         std::to_string(counted) +
                             " frames charged to memcg " +
                             std::to_string(id) + " (recount)",
                         "usage() " + std::to_string(m.usage()));
        }
    }
    // memory.low must hold mid-run, not just at the end. A memcg may
    // drop below low through natural unmapping, so the auditor checks
    // the MM's own breach counter (bumped only when a global-reclaim
    // share takes a protected group under its floor) rather than the
    // instantaneous usage.
    if (mm_.lowBreaches() != 0) {
        addViolation(rep, AuditSubsystem::Memcg, "memcg-low-breached",
                     AuditViolation::kNoSpace, AuditViolation::kNoVpn,
                     kInvalidPfn,
                     "no global-reclaim batch takes a protected memcg "
                     "below memory.low outside overpressure",
                     std::to_string(mm_.lowBreaches()) +
                         " breaches recorded");
    }
}

void
MmAuditor::checkSwap(AuditReport &rep, WalkContext &ctx) const
{
    const SwapManager &swap = mm_.swap();
    const SwapSlot high = swap.slotHighWater();

    std::unordered_set<SwapSlot> freeSet;
    for (const SwapSlot s : swap.freeSlotList()) {
        ++rep.slotsChecked;
        if (!freeSet.insert(s).second) {
            addViolation(rep, AuditSubsystem::Swap,
                         "free-slot-duplicate",
                         AuditViolation::kNoSpace,
                         AuditViolation::kNoVpn, kInvalidPfn,
                         "each free slot listed once",
                         "slot " + std::to_string(s) + " duplicated");
        }
        if (s >= high) {
            addViolation(rep, AuditSubsystem::Swap,
                         "free-slot-above-high-water",
                         AuditViolation::kNoSpace,
                         AuditViolation::kNoVpn, kInvalidPfn,
                         "free slots below high water " +
                             std::to_string(high),
                         "slot " + std::to_string(s));
        }
    }

    const std::int64_t expectUsed =
        static_cast<std::int64_t>(high) -
        static_cast<std::int64_t>(freeSet.size());
    if (static_cast<std::int64_t>(swap.usedSlots()) != expectUsed) {
        addViolation(rep, AuditSubsystem::Swap, "slot-ledger-imbalance",
                     AuditViolation::kNoSpace, AuditViolation::kNoVpn,
                     kInvalidPfn,
                     "used == high water - free (" +
                         std::to_string(expectUsed) + ")",
                     "used " + std::to_string(swap.usedSlots()));
    }

    std::uint64_t owned = 0;
    for (const auto &[slot, owners] : ctx.slotRefs) {
        ++rep.slotsChecked;
        if (freeSet.count(slot) != 0 || slot >= high) {
            const auto &o = owners.front();
            addViolation(rep, AuditSubsystem::Swap,
                         "referenced-slot-not-allocated",
                         o.space->id(), o.vpn, kInvalidPfn,
                         "slot " + std::to_string(slot) +
                             " allocated (referenced via " + o.via +
                             ")",
                         slot >= high ? "slot never allocated"
                                      : "slot on the free list");
            continue;
        }
        ++owned;
        const auto &o0 = owners.front();
        for (std::size_t i = 1; i < owners.size(); ++i) {
            if (owners[i].space != o0.space || owners[i].vpn != o0.vpn) {
                addViolation(rep, AuditSubsystem::Swap, "slot-shared",
                             o0.space->id(), o0.vpn, kInvalidPfn,
                             "slot " + std::to_string(slot) +
                                 " owned by one page",
                             "also referenced by " +
                                 ownerString(owners[i].space,
                                             owners[i].vpn) +
                                 " via " + owners[i].via);
                break;
            }
        }
    }
    if (owned != swap.usedSlots()) {
        addViolation(rep, AuditSubsystem::Swap, "slot-leak",
                     AuditViolation::kNoSpace, AuditViolation::kNoVpn,
                     kInvalidPfn,
                     "every allocated slot referenced by a PTE or "
                     "frame backing (" +
                         std::to_string(swap.usedSlots()) +
                         " allocated)",
                     std::to_string(owned) + " referenced");
    }

    if (const ZramSwapDevice *z = swap.zram()) {
        if (z->auditPoolBytes() != z->poolBytes()) {
            addViolation(rep, AuditSubsystem::Zram,
                         "pool-bytes-mismatch",
                         AuditViolation::kNoSpace,
                         AuditViolation::kNoVpn, kInvalidPfn,
                         std::to_string(z->auditPoolBytes()) +
                             " bytes (recomputed from tags)",
                         std::to_string(z->poolBytes()) +
                             " bytes accounted");
        }
        z->forEachSlotTag([&](SwapSlot slot, std::uint64_t) {
            ++rep.slotsChecked;
            if (!swap.slotAllocated(slot)) {
                addViolation(rep, AuditSubsystem::Zram,
                             "tag-on-free-slot",
                             AuditViolation::kNoSpace,
                             AuditViolation::kNoVpn, kInvalidPfn,
                             "contents recorded only for allocated "
                             "slots",
                             "slot " + std::to_string(slot) +
                                 " is free");
            }
        });
    }
}

void
MmAuditor::checkWaiters(AuditReport &rep, WalkContext &ctx) const
{
    mm_.forEachIoWaiter([&](const AddressSpace &space, Vpn vpn,
                            std::size_t n) {
        if (n == 0)
            return; // drained entry; harmless
        if (!knownSpace(&space) || vpn >= space.table().span())
            return; // reported via the frame/PTE walks
        const auto pte = space.table().at(vpn);
        if (!pte.inIo()) {
            addViolation(rep, AuditSubsystem::Waiters,
                         "waiter-without-inio", space.id(), vpn,
                         kInvalidPfn,
                         "swap I/O in flight for the awaited page",
                         "PTE flags " + flagString(pte) + ", " +
                             std::to_string(n) + " waiter(s)");
        }
    });

    const std::uint64_t flights =
        static_cast<std::uint64_t>(mm_.writebacksInFlight()) +
        mm_.swapInsInFlight();
    if (ctx.inIoPtes.size() != flights) {
        addViolation(rep, AuditSubsystem::Waiters,
                     "inio-flight-mismatch", AuditViolation::kNoSpace,
                     AuditViolation::kNoVpn, kInvalidPfn,
                     std::to_string(flights) +
                         " in-flight ops (writebacks " +
                         std::to_string(mm_.writebacksInFlight()) +
                         " + swap-ins " +
                         std::to_string(mm_.swapInsInFlight()) + ")",
                     std::to_string(ctx.inIoPtes.size()) +
                         " InIo PTEs");
    }

    // Every InIo page is being carried by exactly one in-transit frame
    // (the swap-in target or the writeback source).
    for (const auto &[space, vpn] : ctx.inIoPtes) {
        unsigned claims = 0;
        auto it = ctx.frameClaims.find(space);
        if (it != ctx.frameClaims.end()) {
            auto jt = it->second.find(vpn);
            if (jt != it->second.end())
                claims = jt->second;
        }
        if (claims != 1) {
            addViolation(rep, AuditSubsystem::Waiters,
                         "inio-frame-claims", space->id(), vpn,
                         kInvalidPfn,
                         "exactly one in-transit frame",
                         std::to_string(claims) + " frames claim the "
                                                  "page");
        }
    }
}

void
MmAuditor::checkFrameList(AuditReport &rep, AuditSubsystem subsystem,
                          const char *which,
                          const FrameList &list) const
{
    ++rep.listsWalked;
    const FrameList::WalkCheck wc = list.auditWalk();
    if (!wc.linksOk) {
        addViolation(rep, subsystem, "list-links-corrupt",
                     AuditViolation::kNoSpace, AuditViolation::kNoVpn,
                     wc.firstBad,
                     std::string("coherent prev/next/listId chain in ") +
                         which,
                     "corruption observed at this frame");
        return; // size comparison is meaningless on a broken chain
    }
    if (wc.count != list.size()) {
        addViolation(rep, subsystem, "list-size-mismatch",
                     AuditViolation::kNoSpace, AuditViolation::kNoVpn,
                     kInvalidPfn,
                     std::string(which) + " size() == walked "
                                          "membership (" +
                         std::to_string(list.size()) + ")",
                     std::to_string(wc.count) + " members walked");
    }
}

} // namespace pagesim
