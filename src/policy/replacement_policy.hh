/**
 * @file
 * The replacement-policy interface the kernel layer drives.
 *
 * A policy owns the classification of resident pages (its lists /
 * generations) and the accessed-bit scanning strategy; the kernel layer
 * (MemoryManager) owns fault handling, frame allocation, swap I/O, and
 * watermarks. The split mirrors Linux: vmscan drives a pluggable LRU
 * implementation.
 */

#ifndef PAGESIM_POLICY_REPLACEMENT_POLICY_HH
#define PAGESIM_POLICY_REPLACEMENT_POLICY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/types.hh"
#include "policy/costs.hh"
#include "sim/serialize.hh"

namespace pagesim
{

class PeriodicSampler;

/** How a page became resident. */
enum class ResidencyKind
{
    NewAnon,          ///< first touch of a fresh page
    SwapInDemand,     ///< demand major fault
    SwapInReadahead,  ///< pulled in by swap readahead
};

/** Counters every policy maintains; reported per trial. */
struct PolicyStats
{
    std::uint64_t ptesScanned = 0;     ///< PTEs visited by any scan
    std::uint64_t regionsVisited = 0;  ///< page-table regions visited
    std::uint64_t regionsSkipped = 0;  ///< regions the filter skipped
    std::uint64_t rmapWalks = 0;       ///< reverse-map walks performed
    std::uint64_t promotions = 0;      ///< pages moved toward "hot"
    std::uint64_t demotions = 0;       ///< pages moved toward "cold"
    std::uint64_t agingPasses = 0;     ///< age() invocations that worked
    std::uint64_t evicted = 0;         ///< victims handed to the kernel
    std::uint64_t refaults = 0;        ///< residencies with a shadow hit
    std::uint64_t secondChances = 0;   ///< accessed pages spared at
                                       ///< eviction time
};

/** Abstract page replacement policy. */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** Human-readable configuration name ("Clock", "MG-LRU", ...). */
    virtual const std::string &name() const = 0;

    /**
     * A frame became resident. @p shadow is the PTE's eviction shadow
     * (0 if none) so the policy can classify refaults.
     */
    virtual void onPageResident(Pfn pfn, ResidencyKind kind,
                                std::uint32_t shadow) = 0;

    /**
     * A frame is leaving memory (evicted or freed); the policy must
     * drop it from its structures.
     * @return the shadow word to stash in the PTE for refault
     *         detection (0 for none).
     */
    virtual std::uint32_t onPageRemoved(Pfn pfn) = 0;

    /**
     * Select up to @p max eviction victims, appending to @p out.
     * The policy performs its accessed-bit checks here (charging
     * @p costs) and gives accessed pages their second chance.
     *
     * May return fewer than @p max (even zero) when it wants aging to
     * run first; the kernel then calls age() and retries.
     */
    virtual std::size_t selectVictims(std::vector<Pfn> &out,
                                      std::size_t max,
                                      CostSink &costs) = 0;

    /**
     * One background aging pass: Clock rebalances active/inactive;
     * MG-LRU walks page tables and tries to create a new generation.
     */
    virtual void age(CostSink &costs) = 0;

    /** Does the policy want an aging pass soon? */
    virtual bool wantsAging() const = 0;

    /**
     * A resident page was accessed through a file descriptor (buffered
     * I/O), i.e. without setting a PTE accessed bit. Default: ignored.
     * MG-LRU uses this for its tier machinery.
     */
    virtual void onFdAccess(Pfn) {}

    /**
     * Register timeseries probes exposing the policy's internals on a
     * PeriodicSampler (generation occupancy, tier refault rates, list
     * sizes, scan rates — see metrics/sampler.hh). Probes must be pure
     * reads: sampling may never perturb policy state, or metrics would
     * change simulation results. Default: no probes.
     */
    virtual void registerProbes(PeriodicSampler &) const {}

    /** Scanning work the policy considers "due" is tracked here. */
    const PolicyStats &stats() const { return stats_; }

    /**
     * Checkpoint the policy's lruvec state. The base captures the
     * common counters; concrete policies append their classification
     * state (list anchors, generations, filters, PID state, ...) after
     * calling the base. Frame-side membership (listId/gen/tier lanes,
     * intrusive links) lives in the FrameTable and is captured there.
     */
    virtual void
    visitState(StateIO &io)
    {
        io.u64(stats_.ptesScanned);
        io.u64(stats_.regionsVisited);
        io.u64(stats_.regionsSkipped);
        io.u64(stats_.rmapWalks);
        io.u64(stats_.promotions);
        io.u64(stats_.demotions);
        io.u64(stats_.agingPasses);
        io.u64(stats_.evicted);
        io.u64(stats_.refaults);
        io.u64(stats_.secondChances);
    }

  protected:
    PolicyStats stats_;
};

} // namespace pagesim

#endif // PAGESIM_POLICY_REPLACEMENT_POLICY_HH
