/**
 * @file
 * Declarative access-pattern segments and the PatternStream that
 * expands them into Ops.
 *
 * Workloads compile each thread's behavior into a compact list of
 * segments (sequential runs, random runs, barriers, phase markers);
 * PatternStream lazily expands segments into the millions of per-page
 * operations the thread executes. Random runs support uniform and
 * zipfian page selection so skewed structures (hash tables, rank
 * vectors, key popularity) are first-class.
 */

#ifndef PAGESIM_WORKLOAD_ACCESS_PATTERN_HH
#define PAGESIM_WORKLOAD_ACCESS_PATTERN_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <variant>
#include <vector>

#include "sim/rng.hh"
#include "workload/ops.hh"

namespace pagesim
{

/** Touch pages [base, base+count) in order. */
struct SeqTouch
{
    Vpn base = 0;
    std::uint64_t count = 0;
    bool write = false;
    bool fd = false;                  ///< buffered-I/O access
    SimDuration computePerPage = 0;   ///< CPU charged before each touch
};

/** Touch @p count pages drawn from [base, base+span). */
struct RandTouch
{
    Vpn base = 0;
    std::uint64_t span = 1;
    std::uint64_t count = 0;
    bool write = false;
    bool fd = false;
    SimDuration computePerTouch = 0;
    /** <= 0 selects uniform; otherwise zipfian skew theta. */
    double zipfTheta = 0.0;
    /** Scatter zipfian ranks across the span (hot pages spread out). */
    bool scrambled = true;
    /** Draw seed; fixed per segment so the trace is reproducible. */
    std::uint64_t seed = 1;
};

/**
 * Touch an explicit list of pages (offsets from @p base), in order.
 * The list is owned by the workload and must outlive the stream; this
 * is how exact traces (e.g. the distinct rank pages each edge block
 * references) are replayed without copying them per thread.
 */
struct IndexedTouch
{
    const std::uint32_t *offsets = nullptr;
    std::uint64_t count = 0;
    Vpn base = 0;
    bool write = false;
    SimDuration computePerTouch = 0;
};

/** Pure compute burst. */
struct ComputeSeg
{
    SimDuration ns = 0;
};

/** Arrive at workload barrier `id`. */
struct BarrierSeg
{
    std::uint32_t id = 0;
};

/** Notify the workload that phase `id` was reached. */
struct PhaseSeg
{
    std::uint32_t id = 0;
};

/** One element of a thread's compiled program. */
using Segment = std::variant<SeqTouch, RandTouch, IndexedTouch,
                             ComputeSeg, BarrierSeg, PhaseSeg>;

/**
 * Expands a segment list into an Op stream.
 *
 * Each refill() writes up to kBlockOps ops of ONE segment in a tight
 * loop for that segment's kind, so a block never spans two segments.
 * The cursor (index_, emitted_, rng_) runs at the end of the block; a
 * checkpoint holds instead the cursor after the last op handed out,
 * exactly what a per-op stream would hold there (see visitState()).
 */
class PatternStream : public OpStream
{
  public:
    explicit PatternStream(std::vector<Segment> segments);

    void visitState(StateIO &io) override;

  protected:
    std::size_t refill(Op *block) override;

  private:
    bool advanceSegment();

    /**
     * Ops a segment emits one at a time, tracked by emitted_; 0 for
     * the single-op kinds, which advance the moment they emit.
     */
    static std::uint64_t runLength(const Segment &seg);

    std::vector<Segment> segments_;
    std::size_t index_ = 0;
    std::uint64_t emitted_ = 0;
    /** Lazily built generator state for the current RandTouch. */
    std::optional<Rng> rng_;
    std::unique_ptr<ZipfianGenerator> zipf_;
    /** rng_ as it stood before the current RandTouch block's draws. */
    Rng blockRng_;
};

} // namespace pagesim

#endif // PAGESIM_WORKLOAD_ACCESS_PATTERN_HH
