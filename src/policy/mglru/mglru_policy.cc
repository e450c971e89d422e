#include "policy/mglru/mglru_policy.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "metrics/sampler.hh"

namespace pagesim
{

namespace
{

/** All generation lists share one list id; identity comes from gen. */
constexpr std::uint8_t kGenList = MgLruPolicy::kListId;

/** Shadow seq field width (see makeShadow). */
constexpr std::uint32_t kShadowSeqMask = 0x1ffffff;

/** Shadow encoding: | seq (25 bits) | tier (2 bits) | valid (1). */
constexpr std::uint32_t
makeShadow(std::uint64_t seq, unsigned tier)
{
    return (static_cast<std::uint32_t>(seq & kShadowSeqMask) << 3) |
           (static_cast<std::uint32_t>(tier & 0x3) << 1) | 1u;
}

constexpr unsigned
shadowTier(std::uint32_t shadow)
{
    return (shadow >> 1) & 0x3;
}

/** Eviction-time seq recorded in @p shadow (truncated to 25 bits). */
constexpr std::uint32_t
shadowSeq(std::uint32_t shadow)
{
    return (shadow >> 3) & kShadowSeqMask;
}

} // namespace

MgLruPolicy::MgLruPolicy(FrameTable &frames,
                         std::vector<AddressSpace *> spaces,
                         const MmCosts &costs, Rng rng,
                         const MgLruConfig &config, std::string name,
                         const EventQueue *clock)
    : frames_(frames), spaces_(std::move(spaces)), costs_(costs),
      rng_(std::move(rng)), config_(config), name_(std::move(name)),
      filters_{RegionBloomFilter(config.bloomBits, config.bloomHashes,
                                 rng_.nextU64()),
               RegionBloomFilter(config.bloomBits, config.bloomHashes,
                                 rng_.nextU64())},
      pid_(config.pid), clock_(clock)
{
    assert(config_.maxNrGens >= 2);
    gens_.reserve(config_.maxNrGens);
    for (std::uint32_t i = 0; i < config_.maxNrGens; ++i)
        gens_.emplace_back(frames_, kGenList);
}

FrameList &
MgLruPolicy::genList(std::uint64_t seq)
{
    return gens_[seq % config_.maxNrGens];
}

const FrameList &
MgLruPolicy::genList(std::uint64_t seq) const
{
    return gens_[seq % config_.maxNrGens];
}

std::uint64_t
MgLruPolicy::genSize(std::uint64_t seq) const
{
    assert(seq >= minSeq_ && seq <= maxSeq_);
    return genList(seq).size();
}

std::uint64_t
MgLruPolicy::regionKey(const AddressSpace &space,
                       std::uint64_t region) const
{
    return (static_cast<std::uint64_t>(space.id()) << 40) | region;
}

void
MgLruPolicy::updateTier(PageInfoRef pi)
{
    if (!pi.file) {
        pi.tier = 0;
        return;
    }
    // tier = log2(refs + 1), capped; the kernel's order_base_2 rule.
    const std::uint32_t capped = std::min(pi.refs, 255u);
    const unsigned t = std::bit_width(capped + 1u) - 1u;
    pi.tier = static_cast<std::uint8_t>(
        std::min<unsigned>(t, TierPidController::kMaxTiers - 1));
}

void
MgLruPolicy::promoteTo(Pfn pfn, std::uint64_t seq)
{
    const auto pi = frames_.info(pfn);
    assert(pi.listId == kGenList);
    genList(pi.gen).remove(pfn);
    pi.gen = seq;
    genList(seq).pushFront(pfn);
}

void
MgLruPolicy::onPageResident(Pfn pfn, ResidencyKind kind,
                            std::uint32_t shadow)
{
    const auto pi = frames_.info(pfn);
    assert(pi.listId == 0);
    std::uint64_t seq;
    switch (kind) {
      case ResidencyKind::NewAnon:
      case ResidencyKind::SwapInDemand:
        seq = maxSeq_; // just touched: youngest generation
        break;
      case ResidencyKind::SwapInReadahead:
      default:
        // Unreferenced speculative pages land one generation above
        // the oldest: cold enough to go first if wrong, with one
        // generation's grace to be demand-touched (swap readahead
        // clusters resolve within that window).
        seq = std::min(minSeq_ + 1, maxSeq_);
        break;
    }
    pi.refs = 0;
    pi.tier = 0;
    if (shadow != 0) {
        ++stats_.refaults;
        const unsigned t = shadowTier(shadow);
        // lru_gen_test_recent: only refaults whose eviction happened
        // within the live generation window carry information about
        // current tier pressure. Arbitrarily stale shadows (the page
        // was evicted many generation cycles ago) must neither train
        // the PID controller nor boost the page's re-entry tier.
        bool recent = true;
        if (config_.refaultRecencyCheck) {
            const std::uint32_t dist =
                (static_cast<std::uint32_t>(maxSeq_) -
                 shadowSeq(shadow)) &
                kShadowSeqMask;
            recent = dist < config_.maxNrGens;
        }
        if (recent) {
            pid_.recordRefault(t);
            if (pi.file) {
                // Refaulted file pages re-enter one tier higher so the
                // controller can see them coming back.
                pi.refs = (1u << std::min(t + 1, 3u)) - 1;
                updateTier(pi);
            }
        } else {
            ++mgStats_.staleRefaults;
        }
    }
    pi.gen = seq;
    genList(seq).pushFront(pfn);
    ++resident_;
}

std::uint32_t
MgLruPolicy::onPageRemoved(Pfn pfn)
{
    const auto pi = frames_.info(pfn);
    if (pi.listId == kGenList) {
        genList(pi.gen).remove(pfn);
        assert(resident_ > 0);
        --resident_;
    }
    return makeShadow(minSeq_, pi.tier);
}

void
MgLruPolicy::visitYoungPte(PteView pte, std::uint64_t promote_seq,
                           CostSink &costs)
{
    const Pfn pfn = pte.pfn();
    const auto pi = frames_.info(pfn);
    if (pi.listId != kGenList)
        return; // in flight (being evicted); leave it alone
    ++pi.refs;
    updateTier(pi);
    if (pi.gen != promote_seq) {
        promoteTo(pfn, promote_seq);
        costs.charge(costs_.listOp);
        ++stats_.promotions;
    }
}

void
MgLruPolicy::ScanChunk::reset(std::uint64_t first, std::uint64_t n)
{
    firstRegion = first;
    numRegions = n;
    empty = present = rejected = scanned = young = 0;
    words.clear();
    bloomKeys.clear();
}

bool
MgLruPolicy::RegionFilter::admits(std::uint64_t key,
                                  std::uint64_t region) const
{
    if (bloom != nullptr && !bloom->maybeContains(key))
        return false;
    if (picks != nullptr) {
        const std::uint64_t i = region - pickBase;
        return (picks[i / 64] >> (i % 64)) & 1u;
    }
    return true;
}

void
MgLruPolicy::drawRandomPicks(const PageTable &table, std::uint64_t first,
                             std::uint64_t n)
{
    // One draw per present region, in ascending region order, tested
    // with the same summary bit the harvest reads. Nothing else draws
    // from rng_ during a slice, so these are exactly the draws a
    // region-by-region loop makes.
    randomPicks_.assign((n + 63) / 64, 0);
    for (std::uint64_t r = table.nextPresentRegion(first); r < first + n;
         r = table.nextPresentRegion(r + 1)) {
        if (rng_.bernoulli(config_.randomScanProb))
            randomPicks_[(r - first) / 64] |= 1ull << ((r - first) % 64);
    }
}

void
MgLruPolicy::harvestChunk(const PageTable &table,
                          const AddressSpace &space,
                          const RegionFilter &filter,
                          ScanChunk &chunk) const
{
    // Reads bitmap words and the frozen filter and writes only @p
    // chunk; every mutation happens in applyChunk. Only `present &
    // accessed` bits are young: an accessed bit on a non-present PTE
    // is neither reported nor cleared.
    const std::uint64_t end = chunk.firstRegion + chunk.numRegions;
    for (std::uint64_t r = chunk.firstRegion; r < end; ++r) {
        if (!table.anyPresent(r)) {
            ++chunk.empty;
            continue;
        }
        ++chunk.present;
        if (!filter.admits(regionKey(space, r), r)) {
            ++chunk.rejected;
            continue;
        }
        ++chunk.scanned;
        std::uint64_t young = 0;
        for (std::uint64_t w = 0; w < PageTable::kWordsPerRegion; ++w) {
            const std::uint64_t mask =
                table.accessedWord(r, w) & table.presentWord(r, w);
            if (mask == 0)
                continue;
            young += static_cast<std::uint64_t>(std::popcount(mask));
            chunk.words.push_back(
                YoungWord{r * PageTable::kWordsPerRegion + w, mask});
        }
        chunk.young += young;
        if (young >= config_.youngDensityThreshold)
            chunk.bloomKeys.push_back(regionKey(space, r));
    }
}

void
MgLruPolicy::applyChunk(PageTable &table, const ScanChunk &chunk,
                        std::uint64_t promote_seq, CostSink &costs)
{
    // Each charge is truncated once from double, then multiplied by an
    // integer count: CostSink::charge is a plain sum, so this equals a
    // per-region (and per-PTE) accumulation bit for bit.
    const double ws = costs_.walkScale;
    // The SIMULATED walker reads every slot of each scanned leaf table
    // page; sparse regions pay the full linear cost — exactly why
    // naive full scans are wasteful (Sec. III-B). The host touches
    // only the young words.
    const auto pteScanCost = static_cast<SimDuration>(
        ws * static_cast<double>(costs_.pteScan * kPtesPerRegion));
    costs.charge(pteScanCost * static_cast<SimDuration>(chunk.scanned));
    stats_.ptesScanned += chunk.scanned * kPtesPerRegion;
    // Clearing a live accessed bit costs a TLB shootdown.
    const auto youngClearCost = static_cast<SimDuration>(
        ws * static_cast<double>(costs_.youngClear));
    costs.charge(youngClearCost * static_cast<SimDuration>(chunk.young));

    for (const YoungWord &yw : chunk.words) {
        table.clearAccessedBits(yw.index / PageTable::kWordsPerRegion,
                                yw.index % PageTable::kWordsPerRegion,
                                yw.mask);
        const Vpn wbase = yw.index * 64;
        for (std::uint64_t m = yw.mask; m != 0; m &= m - 1) {
            const auto pte = table.at(
                wbase + static_cast<std::uint64_t>(std::countr_zero(m)));
            // lint:pte-direct-ok(clearAccessedBits above already
            // reconciled the bitmap word for this whole word; this
            // per-bit store only mirrors it into the Pte, which the
            // word-wide op leaves to this loop on purpose)
            pte.clearFlag(Pte::Accessed);
            visitYoungPte(pte, promote_seq, costs);
        }
    }
    for (const std::uint64_t key : chunk.bloomKeys) {
        filters_[1 - activeFilter_].add(key);
        costs.charge(costs_.bloomOp);
        ++mgStats_.bloomInsertions;
    }
}

void
MgLruPolicy::startWalk()
{
    walk_.active = true;
    walk_.spaceIdx = 0;
    walk_.region = 0;
    walk_.canInc = (maxSeq_ - minSeq_ + 1) < config_.maxNrGens;
    walk_.promoteSeq = walk_.canInc ? maxSeq_ + 1 : maxSeq_;
    if (!walk_.canInc)
        ++mgStats_.genCreationBlocked;
    if (config_.scanMode != ScanMode::None)
        filters_[1 - activeFilter_].clear();
}

void
MgLruPolicy::finishWalk()
{
    if (config_.scanMode != ScanMode::None) {
        // The filter built during this walk serves the next one.
        activeFilter_ = 1 - activeFilter_;
        filterWarm_ = true;
    }
    if (!walk_.canInc &&
        (maxSeq_ - minSeq_ + 1) < config_.maxNrGens) {
        // The snapshot taken at startWalk() said the generation budget
        // was exhausted, but eviction drained the oldest generation(s)
        // while this sliced walk was in flight and minSeq advanced.
        // Re-evaluate at completion so the walk's work still yields a
        // fresh generation instead of collapsing into maxSeq.
        walk_.canInc = true;
        ++mgStats_.lateGenCreations;
    }
    if (walk_.canInc) {
        // Safe even if pages were promoted into the new youngest
        // generation while the walk was in flight.
        ++maxSeq_;
        ++mgStats_.genCreations;
    }
    pid_.update();
    evictedAtLastAge_ = stats_.evicted;
    if (clock_ != nullptr)
        lastPassNs_ = clock_->now();
    ++stats_.agingPasses;
    walk_.active = false;
}

bool
MgLruPolicy::ageStep(CostSink &costs, std::uint32_t region_budget)
{
    if (!walk_.active)
        startWalk();

    if (config_.scanMode == ScanMode::None) {
        // Scan-None never walks page tables; aging is just the
        // generation bump.
        finishWalk();
        return true;
    }

    const auto regionVisitCost = static_cast<SimDuration>(
        costs_.walkScale * static_cast<double>(costs_.regionVisit));
    const bool bloom = config_.scanMode == ScanMode::Bloom;
    RegionFilter filter;
    // Before the first walk has populated a filter, the kernel walks
    // every present region (the lookup is charged all the same).
    if (bloom && filterWarm_)
        filter.bloom = &filters_[activeFilter_];

    std::uint64_t visited = 0;
    while (walk_.spaceIdx < spaces_.size()) {
        AddressSpace &space = *spaces_[walk_.spaceIdx];
        PageTable &table = space.table();
        const std::uint64_t nr = table.numRegions();
        while (walk_.region < nr) {
            if (visited >= region_budget)
                return false; // pass continues on the next slice
            // Every region costs one budget unit, present or not, so
            // the slice boundary is content-independent.
            const std::uint64_t first = walk_.region;
            const std::uint64_t take = std::min<std::uint64_t>(
                nr - first, region_budget - visited);
            if (config_.scanMode == ScanMode::Random) {
                drawRandomPicks(table, first, take);
                filter.picks = randomPicks_.data();
                filter.pickBase = first;
            }

            // Harvest the slice, then apply it: every simulated-state
            // change happens in the apply, in ascending region order.
            scanChunk_.reset(first, take);
            harvestChunk(table, space, filter, scanChunk_);
            costs.charge(regionVisitCost * static_cast<SimDuration>(take));
            stats_.regionsVisited += take;
            stats_.regionsSkipped += scanChunk_.empty + scanChunk_.rejected;
            if (bloom)
                costs.charge(costs_.bloomOp *
                             static_cast<SimDuration>(scanChunk_.present));
            applyChunk(table, scanChunk_, walk_.promoteSeq, costs);
            walk_.region += take;
            visited += take;
        }
        ++walk_.spaceIdx;
        walk_.region = 0;
    }
    finishWalk();
    return true;
}

void
MgLruPolicy::age(CostSink &costs)
{
    while (!ageStep(costs, UINT32_MAX)) {
    }
}

bool
MgLruPolicy::wantsAging() const
{
    // Pass-rate floor: generations are cohorts of pages referenced
    // between passes; passes spaced closer than minAgingGap make
    // cohorts (and thus generation numbers) meaningless and spin the
    // walker. Eviction that has to wait out the gap stalls — a real
    // MG-LRU tail mechanism (Sec. VI-A).
    if (clock_ != nullptr && lastPassNs_ != 0 &&
        clock_->now() - lastPassNs_ < config_.minAgingGap) {
        return false;
    }
    // Demand-driven, like try_to_inc_max_seq: keep enough live
    // generations ahead of eviction...
    if (maxSeq_ - minSeq_ < 2)
        return true;
    // ...and otherwise only once eviction has made real progress
    // since the last pass (generations represent reclaim work)...
    if (stats_.evicted - evictedAtLastAge_ < config_.agingEvictGate)
        return false;
    // ...and the evictable (non-youngest) population runs thin.
    const std::uint64_t young = genList(maxSeq_).size();
    const std::uint64_t cold = resident_ - young;
    return cold < config_.agingLowPages;
}

std::size_t
MgLruPolicy::selectVictims(std::vector<Pfn> &out, std::size_t max,
                           CostSink &costs)
{
    std::size_t got = 0;
    // Pressure escalation (the kernel's rising scan priority): after
    // repeated starved rounds, referenced pages are reclaimed anyway
    // rather than promoted, so reclaim always eventually progresses.
    // Escalation is deliberately slower than Clock's inline refill:
    // MG-LRU burns scan budget promoting referenced pages first, the
    // reclaim-rate burstiness behind its tail behavior (Sec. VI-A).
    const bool force = starvedRounds_ >= 3;
    // Tier protection is bounded per scan: once the budget is spent,
    // protected-tier pages are reclaimed anyway (counted, so the PID
    // sees their refaults and rebalances) — protection must shape
    // eviction order, never block reclaim.
    std::size_t protect_budget = max;
    std::uint64_t budget =
        static_cast<std::uint64_t>(max) * config_.scanLimitFactor + 64;
    while (got < max && budget-- > 0) {
        while (genList(minSeq_).empty() && minSeq_ < maxSeq_)
            ++minSeq_;
        // Never drain the youngest generation — except at the highest
        // pressure level, where the kernel reclaims everything it can
        // rather than livelock (the whole resident set can be hot).
        if (minSeq_ == maxSeq_ && !force)
            break;
        FrameList &oldest = genList(minSeq_);
        if (oldest.empty())
            break;

        const Pfn pfn = oldest.popBack();
        const auto pi = frames_.info(pfn);
        // Like Clock, eviction resolves the page's PTE via the rmap.
        costs.charge(costs_.rmapWalk);
        ++stats_.rmapWalks;
        ++stats_.ptesScanned;
        assert(pi.space != nullptr);
        if (pi.space->table().testAndClearAccessed(pi.vpn) && !force) {
            // Referenced since aging last saw it: send to the youngest
            // generation, then exploit spatial locality by scanning the
            // surrounding PTEs of the same page-table region.
            ++pi.refs;
            updateTier(pi);
            pi.gen = maxSeq_;
            genList(maxSeq_).pushFront(pfn);
            ++stats_.secondChances;
            ++stats_.promotions;
            if (config_.evictNeighborScan) {
                // The walk's harvest and apply over this one region,
                // unfiltered. Eviction reached the region through the
                // rmap, so there is no region-visit charge.
                ++mgStats_.neighborScans;
                const std::uint64_t promoted_before = stats_.promotions;
                PageTable &table = pi.space->table();
                scanChunk_.reset(regionOf(pi.vpn), 1);
                harvestChunk(table, *pi.space, RegionFilter{}, scanChunk_);
                assert(scanChunk_.scanned == 1); // pfn is mapped
                applyChunk(table, scanChunk_, maxSeq_, costs);
                mgStats_.neighborPromotions +=
                    stats_.promotions - promoted_before;
            }
            continue;
        }
        if (config_.tierProtection && !force && protect_budget > 0 &&
            pi.tier > 0 && pid_.isProtected(pi.tier)) {
            // Protected tier: granted two generations of grace
            // instead of eviction, until refault rates balance.
            --protect_budget;
            pi.gen = std::min(minSeq_ + 2, maxSeq_);
            genList(pi.gen).pushFront(pfn);
            ++mgStats_.tierProtected;
            continue;
        }
        // Victim.
        pid_.recordEviction(pi.tier);
        costs.charge(costs_.evictFixed);
        assert(resident_ > 0);
        --resident_;
        out.push_back(pfn);
        ++stats_.evicted;
        ++got;
    }
    if (got == 0)
        ++starvedRounds_;
    else
        starvedRounds_ = 0;
    return got;
}

void
MgLruPolicy::onFdAccess(Pfn pfn)
{
    const auto pi = frames_.info(pfn);
    if (pi.listId != kGenList)
        return;
    // fd-accessed pages do NOT jump to the youngest generation; they
    // climb a tier within their generation (Sec. III-D).
    ++pi.refs;
    updateTier(pi);
}

void
MgLruPolicy::visitState(StateIO &io)
{
    ReplacementPolicy::visitState(io);
    // Generation lists: the vector length is a config parameter
    // (maxNrGens), replayed at reconstruction; only the anchors move.
    for (auto &gen : gens_)
        gen.visitState(io);
    // Restored scalars index gens_ and filters_: refuse any value the
    // live object could not hold, before anything is applied.
    const std::uint64_t min_seq = io.u64(minSeq_);
    const std::uint64_t max_seq = io.u64(maxSeq_);
    io.require(min_seq <= max_seq &&
               max_seq - min_seq < config_.maxNrGens);
    io.u64(resident_);
    filters_[0].visitState(io);
    filters_[1].visitState(io);
    io.require(io.u32(activeFilter_) <= 1);
    io.boolean(filterWarm_);
    pid_.visitState(io);
    io.u64(mgStats_.genCreations);
    io.u64(mgStats_.genCreationBlocked);
    io.u64(mgStats_.bloomInsertions);
    io.u64(mgStats_.neighborScans);
    io.u64(mgStats_.neighborPromotions);
    io.u64(mgStats_.tierProtected);
    io.u64(mgStats_.staleRefaults);
    io.u64(mgStats_.lateGenCreations);
    io.u32(starvedRounds_);
    io.u64(evictedAtLastAge_);
    io.u64(lastPassNs_);
    const bool walking = io.boolean(walk_.active);
    io.u64(walk_.spaceIdx);
    io.u64(walk_.region);
    io.boolean(walk_.canInc);
    const std::uint64_t promote_seq = io.u64(walk_.promoteSeq);
    io.require(!walking || promote_seq == max_seq ||
               promote_seq == max_seq + 1);
    rng_.visitState(io);
}

void
MgLruPolicy::registerProbes(PeriodicSampler &sampler) const
{
    sampler.probe("mglru.min_seq", [this] {
        return static_cast<double>(minSeq_);
    });
    sampler.probe("mglru.max_seq", [this] {
        return static_cast<double>(maxSeq_);
    });
    sampler.probe("mglru.num_gens", [this] {
        return static_cast<double>(numGens());
    });
    sampler.probe("mglru.resident_pages", [this] {
        return static_cast<double>(resident_);
    });
    // Generation occupancy, oldest-relative: gen0 is minSeq (next to
    // be reclaimed), gen3 the youngest of a full ladder. Relative
    // indexing keeps probe identity stable as sequences advance.
    for (std::uint64_t off = 0; off < 4; ++off) {
        sampler.probe("mglru.gen" + std::to_string(off) + "_pages",
                      [this, off] {
                          if (off >= numGens())
                              return 0.0;
                          return static_cast<double>(
                              genSize(minSeq_ + off));
                      });
    }
    for (unsigned tier = 0; tier < TierPidController::kMaxTiers;
         ++tier) {
        sampler.probe("mglru.tier" + std::to_string(tier) +
                          ".refault_rate",
                      [this, tier] { return pid_.refaultRate(tier); });
        sampler.probe("mglru.tier" + std::to_string(tier) +
                          ".pid_output",
                      [this, tier] { return pid_.output(tier); });
    }
    sampler.probe("mglru.pte_scan_rate",
                  [this, prev = std::uint64_t{0}]() mutable {
                      const std::uint64_t cur = stats_.ptesScanned;
                      const std::uint64_t d = cur - prev;
                      prev = cur;
                      return static_cast<double>(d);
                  });
}

} // namespace pagesim
