/**
 * @file
 * Multi-Generational LRU, modeled on the Linux 6.x implementation the
 * paper characterizes (Sec. III).
 *
 * Components:
 *
 *  - Generations: pages carry an absolute generation sequence number;
 *    per-generation intrusive lists span [minSeq, maxSeq]. Accessed
 *    pages move to the youngest generation; eviction consumes the
 *    oldest. Creating a generation is O(1); moving a page between
 *    generations is O(1) (the property the paper's Gen-14 variant
 *    relies on).
 *
 *  - Aging: a page-table walk (not an rmap walk) that test-and-clears
 *    accessed bits linearly, region by region, exploiting page-table
 *    spatial locality. Regions are pre-filtered by a double-buffered
 *    Bloom filter: only regions the previous pass (or the eviction
 *    path) found dense in young PTEs are rescanned. After a walk, the
 *    youngest generation sequence is incremented *if* the generation
 *    budget allows; when the budget is exhausted, consecutive walks
 *    promote into the same generation — the precision loss the paper
 *    calls out (Sec. V-B).
 *
 *    There is one walk. For each slice, a read-only harvest collects
 *    the young bitmap words, and an apply in ascending region order
 *    clears them, charges the walk and moves pages between
 *    generations. The variants below differ only in which present
 *    regions the harvest admits (DESIGN.md Sec. 4f).
 *
 *  - Eviction: scans the oldest generation, walking the rmap per page
 *    like Clock, but on finding a referenced page it additionally
 *    scans the *surrounding PTEs* of that page's page-table region
 *    (the walk's harvest and apply over that one region, unfiltered),
 *    promoting other referenced pages at linear-scan cost and feeding
 *    dense regions back into the Bloom filter (the aging/eviction
 *    feedback loop, Sec. III-C).
 *
 *  - Tiers + PID: file-backed pages accessed through file descriptors
 *    climb tiers within a generation instead of jumping to the
 *    youngest generation; tiers whose refault rate exceeds tier 0's
 *    are protected from eviction by a PID controller (Sec. III-D).
 *
 * The paper's four variants are configuration points:
 *   Gen-14    -> maxNrGens = 2^14
 *   Scan-All  -> ScanMode::All   (aging scans every region)
 *   Scan-None -> ScanMode::None  (aging scans nothing)
 *   Scan-Rand -> ScanMode::Random with p = 0.5 (one draw per present
 *                region, in walk order, before each slice's harvest)
 */

#ifndef PAGESIM_POLICY_MGLRU_MGLRU_POLICY_HH
#define PAGESIM_POLICY_MGLRU_MGLRU_POLICY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/address_space.hh"
#include "mem/frame_table.hh"
#include "policy/mglru/bloom_filter.hh"
#include "policy/mglru/pid_controller.hh"
#include "policy/replacement_policy.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace pagesim
{

/** Aging-walk region filtering strategy. */
enum class ScanMode
{
    Bloom,  ///< default MG-LRU: Bloom-filtered walk
    All,    ///< Scan-All: walk every region
    None,   ///< Scan-None: no aging walk at all
    Random, ///< Scan-Rand: walk each region with fixed probability
};

/** Tunables for MgLruPolicy. */
struct MgLruConfig
{
    /** Generation budget; kernel default 4, Gen-14 uses 2^14. */
    std::uint32_t maxNrGens = 4;
    ScanMode scanMode = ScanMode::Bloom;
    /** Region scan probability for ScanMode::Random. */
    double randomScanProb = 0.5;
    /**
     * Young PTEs a region must produce to enter the next Bloom filter.
     * The kernel's rule of thumb is one accessed PTE per cache line of
     * the page-table page, i.e. one per 8 PTEs: kPtesPerRegion / 8.
     */
    std::uint32_t youngDensityThreshold = kPtesPerRegion / 8;
    /** Eviction-side spatial scan of the referenced page's region. */
    bool evictNeighborScan = true;
    std::uint32_t bloomBits = RegionBloomFilter::kDefaultBits;
    unsigned bloomHashes = RegionBloomFilter::kDefaultHashes;
    /** Tier/PID protection of file-backed pages. */
    bool tierProtection = true;
    /**
     * Gate PID refault training on eviction recency, like the
     * kernel's lru_gen_test_recent(): a refault whose eviction
     * happened more than maxNrGens generations ago says nothing about
     * current tier pressure and must not train the controller.
     */
    bool refaultRecencyCheck = true;
    PidConfig pid{};
    /** Victim-scan budget multiplier in selectVictims(). */
    std::uint32_t scanLimitFactor = 16;
    /**
     * wantsAging() fires when cold pages (everything outside the
     * youngest generation) drop below this count.
     */
    std::uint64_t agingLowPages = 2048;
    /**
     * Except when the generation budget is exhausted (< 2 live
     * generations), a new aging pass requires at least this many
     * evictions since the previous pass — generations must represent
     * real reclaim progress, bounding the walk rate under thrash.
     */
    std::uint64_t agingEvictGate = 256;
    /**
     * Minimum sim-time spacing between aging passes (needs a clock,
     * see the constructor). Generations are cohorts of pages faulted
     * or referenced between passes; without a floor on pass spacing,
     * demand-driven aging under streaming collapses cohorts to a
     * handful of pages and the walker spins. When eviction has to
     * wait out this gap, reclaim stalls — the paper's slow-reclaim
     * tail mechanism (Sec. VI-A).
     */
    SimDuration minAgingGap = msecs(25);
};

/** Extra counters specific to MG-LRU (on top of PolicyStats). */
struct MgLruStats
{
    std::uint64_t genCreations = 0;   ///< times maxSeq was incremented
    std::uint64_t genCreationBlocked = 0; ///< walks at the gen budget
    std::uint64_t bloomInsertions = 0;
    std::uint64_t neighborScans = 0;  ///< eviction-side region scans
    std::uint64_t neighborPromotions = 0;
    std::uint64_t tierProtected = 0;  ///< pages spared by the PID
    /** Refaults too stale to train the PID (recency check failed). */
    std::uint64_t staleRefaults = 0;
    /** Generations created at finishWalk() from headroom that opened
     *  mid-walk (minSeq advanced while the sliced walk was running). */
    std::uint64_t lateGenCreations = 0;
};

/** The Multi-Generational LRU policy. */
class MgLruPolicy : public ReplacementPolicy
{
  public:
    /** PageInfo::listId of every generation list (identity is gen). */
    static constexpr std::uint8_t kListId = 3;

    /**
     * @param frames physical frame table
     * @param spaces address spaces whose page tables aging walks
     * @param costs  CPU cost model
     * @param rng    stream for Scan-Rand and the Bloom salt
     * @param config variant configuration
     * @param name   reported configuration name
     * @param clock  sim clock for pass-rate limiting (kernel code
     *               reads jiffies; nullptr disables the gap gate)
     */
    MgLruPolicy(FrameTable &frames,
                std::vector<AddressSpace *> spaces,
                const MmCosts &costs, Rng rng,
                const MgLruConfig &config = MgLruConfig{},
                std::string name = "MG-LRU",
                const EventQueue *clock = nullptr);

    const std::string &name() const override { return name_; }

    void onPageResident(Pfn pfn, ResidencyKind kind,
                        std::uint32_t shadow) override;
    std::uint32_t onPageRemoved(Pfn pfn) override;
    std::size_t selectVictims(std::vector<Pfn> &out, std::size_t max,
                              CostSink &costs) override;

    /**
     * Complete one full aging pass synchronously (direct-reclaim
     * urgency): finishes any in-progress walk, or runs a whole one.
     */
    void age(CostSink &costs) override;

    /**
     * Advance the aging walk by at most @p region_budget page-table
     * regions. The background aging thread uses this to spread a walk
     * over simulated time — accessed bits are cleared progressively,
     * exactly the property behind the paper's bimodal-scanning
     * straggler analysis (Sec. V-B).
     *
     * @return true when the pass completed (a generation may have
     *         been created).
     */
    bool ageStep(CostSink &costs, std::uint32_t region_budget);

    /** A sliced aging walk is currently mid-flight. */
    bool agingInProgress() const { return walk_.active; }

    bool wantsAging() const override;

    /**
     * A resident file page was accessed through a file descriptor
     * (buffered I/O): bump its use count / tier without touching the
     * PTE accessed bit (paper Sec. III-D).
     */
    void onFdAccess(Pfn pfn) override;

    void registerProbes(PeriodicSampler &sampler) const override;

    std::uint64_t minSeq() const { return minSeq_; }
    std::uint64_t maxSeq() const { return maxSeq_; }
    std::uint64_t numGens() const { return maxSeq_ - minSeq_ + 1; }
    std::uint64_t residentPages() const { return resident_; }
    std::uint64_t genSize(std::uint64_t seq) const;
    const MgLruStats &mgStats() const { return mgStats_; }
    const TierPidController &pid() const { return pid_; }
    const RegionBloomFilter &activeFilter() const
    {
        return filters_[activeFilter_];
    }

    /** Audit hook: the generation list holding pages of @p seq. */
    const FrameList &
    genListAt(std::uint64_t seq) const
    {
        assert(seq >= minSeq_ && seq <= maxSeq_);
        return genList(seq);
    }

    void visitState(StateIO &io) override;

  private:
    FrameList &genList(std::uint64_t seq);
    const FrameList &genList(std::uint64_t seq) const;
    std::uint64_t regionKey(const AddressSpace &space,
                            std::uint64_t region) const;

    /** Move a page to generation @p seq (front of its list). */
    void promoteTo(Pfn pfn, std::uint64_t seq);

    /** Recompute a file page's tier from its use count. */
    void updateTier(PageInfoRef pi);

    /** Tier and generation update for one young PTE. */
    void visitYoungPte(PteView pte, std::uint64_t promote_seq,
                       CostSink &costs);

    /** One bitmap word's `present & accessed` bits. */
    struct YoungWord
    {
        std::uint64_t index; ///< flat bitmap word index (vpn / 64)
        std::uint64_t mask;
    };

    /**
     * One run of regions and what the harvest found there: region
     * tallies, the young words (ascending) and the keys of regions
     * that crossed the Bloom density threshold (in region order) —
     * everything the apply needs. Reused across slices so the walk
     * does not allocate once its buffers have grown.
     */
    struct ScanChunk
    {
        std::uint64_t firstRegion = 0;
        std::uint64_t numRegions = 0;
        std::uint64_t empty = 0;    ///< regions with no present PTE
        std::uint64_t present = 0;  ///< regions with a present PTE
        std::uint64_t rejected = 0; ///< present, not admitted
        std::uint64_t scanned = 0;  ///< present and admitted
        std::uint64_t young = 0;    ///< young PTEs harvested
        std::vector<YoungWord> words;
        std::vector<std::uint64_t> bloomKeys;

        /** Start over on regions [first, first + n). */
        void reset(std::uint64_t first, std::uint64_t n);
    };

    /**
     * Which present regions a harvest admits. Both sources are frozen
     * while a harvest runs: the active Bloom filter takes no inserts
     * during a pass (they go to the other one), and the Scan-Rand
     * picks are drawn before the slice's harvest.
     */
    struct RegionFilter
    {
        /** Warm active filter (Bloom mode), else null: admit all. */
        const RegionBloomFilter *bloom = nullptr;
        /** Scan-Rand picks, bit (r - pickBase), else null. */
        const std::uint64_t *picks = nullptr;
        std::uint64_t pickBase = 0;

        bool admits(std::uint64_t key, std::uint64_t region) const;
    };

    /** Draw the Scan-Rand picks for regions [first, first + n). */
    void drawRandomPicks(const PageTable &table, std::uint64_t first,
                         std::uint64_t n);
    /** Harvest one chunk. Reads only. */
    void harvestChunk(const PageTable &table, const AddressSpace &space,
                      const RegionFilter &filter,
                      ScanChunk &chunk) const;
    /**
     * Apply a harvested chunk: PTE-scan and young-clear charges,
     * accessed-bit clears, promotions and Bloom inserts. The per-region
     * visit and admission charges belong to the walk, not to here.
     */
    void applyChunk(PageTable &table, const ScanChunk &chunk,
                    std::uint64_t promote_seq, CostSink &costs);

    FrameTable &frames_;
    std::vector<AddressSpace *> spaces_;
    // lint:state-cov-ok(cost table fixed at construction from the validated config)
    MmCosts costs_;
    Rng rng_;
    MgLruConfig config_;
    // lint:state-cov-ok(display name fixed at construction)
    std::string name_;

    std::vector<FrameList> gens_;
    std::uint64_t minSeq_ = 0;
    std::uint64_t maxSeq_ = 1;
    std::uint64_t resident_ = 0;

    RegionBloomFilter filters_[2];
    unsigned activeFilter_ = 0;
    /** True once any aging walk has populated a filter. */
    bool filterWarm_ = false;

    TierPidController pid_;
    MgLruStats mgStats_;
    /** Consecutive selectVictims() rounds that produced nothing. */
    unsigned starvedRounds_ = 0;
    /** stats_.evicted at the last aging pass (rate gate). */
    std::uint64_t evictedAtLastAge_ = 0;
    /** Sim clock for pass pacing (may be null in unit tests). */
    const EventQueue *clock_ = nullptr;
    /** Completion time of the last aging pass. */
    SimTime lastPassNs_ = 0;

    /** Incremental aging-walk cursor. */
    struct WalkState
    {
        bool active = false;
        std::size_t spaceIdx = 0;
        std::uint64_t region = 0;
        bool canInc = false;
        std::uint64_t promoteSeq = 0;
    };
    WalkState walk_;

    // lint:state-cov-ok(per-slice scratch, redrawn at the start of every Scan-Rand slice)
    std::vector<std::uint64_t> randomPicks_;
    /** Walk-slice and neighbor-scan scratch, reused to avoid reallocation. */
    // lint:state-cov-ok(per-scan scratch, reset at the start of every slice and neighbor scan)
    ScanChunk scanChunk_;

    void startWalk();
    void finishWalk();
};

} // namespace pagesim

#endif // PAGESIM_POLICY_MGLRU_MGLRU_POLICY_HH
