#include "policy/mglru/mglru_policy.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "metrics/sampler.hh"
#include "sim/parallel.hh"

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
    if (config_.scanWorkers != 0)
        scanWorkers_ = config_.scanWorkers;
    else if (workerOverride() != 0)
        scanWorkers_ = workerOverride();
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

bool
MgLruPolicy::shouldScanRegion(std::uint64_t key, CostSink &costs)
{
    switch (config_.scanMode) {
      case ScanMode::All:
        return true;
      case ScanMode::Random:
        return rng_.bernoulli(config_.randomScanProb);
      case ScanMode::Bloom:
        costs.charge(costs_.bloomOp);
        // Before the first walk has populated a filter, the kernel
        // walks everything it finds.
        if (!filterWarm_)
            return true;
        return filters_[activeFilter_].maybeContains(key);
      case ScanMode::None:
      default:
        return false;
    }
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
MgLruPolicy::scanRegion(AddressSpace &space, std::uint64_t region,
                        std::uint64_t promote_seq, CostSink &costs)
{
    PageTable &table = space.table();
    const Vpn base = regionBase(region);
    const double ws = costs_.walkScale;
    // The SIMULATED walker reads every slot of the leaf table page;
    // sparse regions pay the full linear cost — exactly why naive full
    // scans are wasteful (Sec. III-B). The host-side implementation
    // below touches only the young PTEs, but the charge stays linear.
    costs.charge(static_cast<SimDuration>(
        ws * static_cast<double>(costs_.pteScan * kPtesPerRegion)));
    stats_.ptesScanned += kPtesPerRegion;
    // Clearing a live accessed bit costs a TLB shootdown.
    const auto youngClearCost = static_cast<SimDuration>(
        ws * static_cast<double>(costs_.youngClear));
    std::uint32_t young = 0;

    if (config_.referenceScan) {
        // Reference implementation: one Pte at a time, exactly the
        // pre-bitmap loop. Kept selectable so differential tests can
        // prove the word path below is behavior-identical.
        for (Vpn v = base; v < base + kPtesPerRegion; ++v) {
            const auto pte = table.at(v);
            if (!pte.present())
                continue;
            if (!table.testAndClearAccessed(v))
                continue;
            costs.charge(youngClearCost);
            ++young;
            visitYoungPte(pte, promote_seq, costs);
        }
    } else {
        // Word-at-a-time: only `present & accessed` bits cost PTE
        // loads; a cold or empty word costs two bitmap loads total.
        // Accessed-bit clearing is one word store per word plus a
        // per-PTE flag fixup only for the set bits. Masking with
        // `present` matters: the per-slot loop above never clears the
        // accessed bit of a non-present PTE, so neither may we.
        for (std::uint64_t w = 0; w < PageTable::kWordsPerRegion; ++w) {
            std::uint64_t hot = table.accessedWord(region, w) &
                                table.presentWord(region, w);
            if (hot == 0)
                continue;
            table.clearAccessedBits(region, w, hot);
            const Vpn wbase = base + w * 64;
            do {
                const auto bit = static_cast<unsigned>(
                    std::countr_zero(hot));
                hot &= hot - 1;
                const auto pte = table.at(wbase + bit);
                // lint:pte-direct-ok(clearAccessedBits above already
                // reconciled the bitmap word and region counters for
                // this whole word; this per-bit store only mirrors it
                // into the Pte, which the word-wide op leaves to the
                // fixup loop on purpose)
                pte.clearFlag(Pte::Accessed);
                costs.charge(youngClearCost);
                ++young;
                visitYoungPte(pte, promote_seq, costs);
            } while (hot != 0);
        }
    }

    if (young >= config_.youngDensityThreshold) {
        filters_[1 - activeFilter_].add(regionKey(space, region));
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

    if (useShardedScan())
        return ageStepSharded(costs, region_budget);

    // The per-region visit charge is truncated per region (matching
    // the per-slot reference), then multiplied for batched skips —
    // never cast(n * cost), which would round differently.
    const auto regionVisitCost = static_cast<SimDuration>(
        costs_.walkScale * static_cast<double>(costs_.regionVisit));
    std::uint64_t visited = 0;
    while (walk_.spaceIdx < spaces_.size()) {
        AddressSpace &space = *spaces_[walk_.spaceIdx];
        PageTable &table = space.table();
        const std::uint64_t nr = table.numRegions();
        while (walk_.region < nr) {
            if (visited >= region_budget)
                return false; // pass continues on the next slice
            const std::uint64_t next =
                table.nextPresentRegion(walk_.region);
            if (next > walk_.region) {
                // A run of regions with no present PTE: the per-slot
                // walker would visit and skip each one (a present-free
                // region never consults the Bloom filter or the RNG),
                // so batching the run keeps charges, stats, and RNG
                // draws identical while costing one summary-bitmap
                // scan on the host.
                const std::uint64_t n =
                    std::min(next - walk_.region,
                             region_budget - visited);
                costs.charge(regionVisitCost *
                             static_cast<SimDuration>(n));
                stats_.regionsVisited += n;
                stats_.regionsSkipped += n;
                visited += n;
                walk_.region += n;
                continue;
            }
            const std::uint64_t r = walk_.region++;
            ++visited;
            costs.charge(regionVisitCost);
            ++stats_.regionsVisited;
            if (!shouldScanRegion(regionKey(space, r), costs)) {
                ++stats_.regionsSkipped;
                continue;
            }
            scanRegion(space, r, walk_.promoteSeq, costs);
        }
        ++walk_.spaceIdx;
        walk_.region = 0;
    }
    finishWalk();
    return true;
}

bool
MgLruPolicy::useShardedScan() const
{
    // Random mode draws the RNG once per present region, in walk
    // order — state the order-free harvest cannot reproduce. The
    // reference scan exists precisely to pin the legacy loop.
    return config_.shardedScan && !config_.referenceScan &&
           config_.scanMode != ScanMode::Random;
}

void
MgLruPolicy::harvestChunk(PageTable &table, const AddressSpace &space,
                          const ScanChunk &chunk,
                          const RegionBloomFilter *filter,
                          ChunkHarvest &out) const
{
    // Runs concurrently with other chunks' harvests. Reads bitmap
    // words and the (frozen) active Bloom filter; its only writes are
    // harvestYoungWord's accessed-bit clears, confined to this
    // chunk's own words and flag bytes. No policy state is touched —
    // that all happens in the serial apply loop.
    const std::uint64_t end = chunk.firstRegion + chunk.numRegions;
    for (std::uint64_t r = chunk.firstRegion; r < end; ++r) {
        if (!table.anyPresent(r)) {
            ++out.empty;
            continue;
        }
        ++out.present;
        if (filter != nullptr &&
            !filter->maybeContains(regionKey(space, r))) {
            ++out.rejected;
            continue;
        }
        ++out.scanned;
        std::uint64_t young = 0;
        for (std::uint64_t w = 0; w < PageTable::kWordsPerRegion; ++w) {
            std::uint64_t mask = table.harvestYoungWord(
                r * PageTable::kWordsPerRegion + w);
            if (mask == 0)
                continue;
            young += static_cast<std::uint64_t>(std::popcount(mask));
            const Vpn wbase = regionBase(r) + w * 64;
            do {
                out.youngVpns.push_back(
                    wbase + static_cast<std::uint64_t>(
                                std::countr_zero(mask)));
                mask &= mask - 1;
            } while (mask != 0);
        }
        out.young += young;
        if (young >= config_.youngDensityThreshold)
            out.bloomKeys.push_back(regionKey(space, r));
    }
}

bool
MgLruPolicy::ageStepSharded(CostSink &costs,
                            std::uint32_t region_budget)
{
    // Same per-region charge quantities as the legacy loop: each
    // truncated once from double, then multiplied by integer counts
    // (CostSink::charge is a plain sum, so count * cost == the legacy
    // per-region accumulation bit for bit).
    const double ws = costs_.walkScale;
    const auto regionVisitCost = static_cast<SimDuration>(
        ws * static_cast<double>(costs_.regionVisit));
    const auto pteScanCost = static_cast<SimDuration>(
        ws * static_cast<double>(costs_.pteScan * kPtesPerRegion));
    const auto youngClearCost = static_cast<SimDuration>(
        ws * static_cast<double>(costs_.youngClear));
    const bool bloom = config_.scanMode == ScanMode::Bloom;
    // The active filter is frozen for the whole pass (inserts go to
    // the inactive one), so concurrent reads are safe.
    const RegionBloomFilter *filter =
        (bloom && filterWarm_) ? &filters_[activeFilter_] : nullptr;

    std::uint64_t visited = 0;
    while (walk_.spaceIdx < spaces_.size()) {
        AddressSpace &space = *spaces_[walk_.spaceIdx];
        PageTable &table = space.table();
        const std::uint64_t nr = table.numRegions();
        while (walk_.region < nr) {
            if (visited >= region_budget)
                return false; // pass continues on the next slice
            // Every region costs exactly one budget unit in the
            // legacy loop too (empty-run batching included), so the
            // slice boundary is content-independent.
            const std::uint64_t take = std::min<std::uint64_t>(
                nr - walk_.region, region_budget - visited);

            // Split [region, region + take) at shard boundaries.
            chunkScratch_.clear();
            for (std::uint64_t r = walk_.region, left = take;
                 left > 0;) {
                const std::uint64_t n = std::min(
                    kRegionsPerShard - r % kRegionsPerShard, left);
                chunkScratch_.push_back(ScanChunk{r, n});
                r += n;
                left -= n;
            }
            harvestScratch_.assign(chunkScratch_.size(),
                                   ChunkHarvest{});

            // Parallel harvest: chunks claim slots atomically but
            // write disjoint output, so completion order is
            // unobservable.
            parallelFor(scanWorkers_, chunkScratch_.size(),
                        [&](std::size_t ci) {
                            harvestChunk(table, space,
                                         chunkScratch_[ci], filter,
                                         harvestScratch_[ci]);
                        });

            // Serial apply in ascending chunk (= region) order: the
            // only order-sensitive state is generation-list pushFront
            // order, replayed here exactly as the legacy walk would.
            for (std::size_t ci = 0; ci < chunkScratch_.size(); ++ci) {
                const ScanChunk &ch = chunkScratch_[ci];
                const ChunkHarvest &h = harvestScratch_[ci];
                costs.charge(regionVisitCost *
                             static_cast<SimDuration>(ch.numRegions));
                stats_.regionsVisited += ch.numRegions;
                stats_.regionsSkipped += h.empty + h.rejected;
                if (bloom)
                    costs.charge(costs_.bloomOp *
                                 static_cast<SimDuration>(h.present));
                costs.charge(pteScanCost *
                             static_cast<SimDuration>(h.scanned));
                stats_.ptesScanned += h.scanned * kPtesPerRegion;
                costs.charge(youngClearCost *
                             static_cast<SimDuration>(h.young));
                for (const Vpn v : h.youngVpns)
                    visitYoungPte(table.at(v), walk_.promoteSeq,
                                  costs);
                for (const std::uint64_t key : h.bloomKeys) {
                    filters_[1 - activeFilter_].add(key);
                    costs.charge(costs_.bloomOp);
                    ++mgStats_.bloomInsertions;
                }
            }
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
                ++mgStats_.neighborScans;
                const std::uint64_t promoted_before = stats_.promotions;
                scanRegion(*pi.space, regionOf(pi.vpn), maxSeq_, costs);
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
    io.u64(minSeq_);
    io.u64(maxSeq_);
    io.u64(resident_);
    filters_[0].visitState(io);
    filters_[1].visitState(io);
    io.u32(activeFilter_);
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
    io.boolean(walk_.active);
    io.u64(walk_.spaceIdx);
    io.u64(walk_.region);
    io.boolean(walk_.canInc);
    io.u64(walk_.promoteSeq);
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
