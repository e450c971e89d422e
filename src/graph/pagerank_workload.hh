/**
 * @file
 * PageRank workload (GAP-style pull PageRank over a power-law graph).
 *
 * Structure (paper Sec. IV, V-B): T worker threads own contiguous
 * vertex ranges; an iteration is a barrier-synchronized parallel sweep
 * where each thread streams its offsets/edge pages sequentially and
 * reads the source-rank vector at the pages its in-edges reference —
 * a degree-skewed, semi-random pattern. Because hubs make per-thread
 * edge counts unequal and every iteration ends at a barrier, runtime
 * is governed by the slowest thread, not the average — the paper's
 * explanation for why PageRank's runtime decouples from total fault
 * count.
 *
 * The replayed rank-page trace is exact: it is extracted from the
 * generated graph's real edge list (deduplicated per edge block,
 * capped by sampling to bound op counts; the cap is a documented
 * scaling knob). The shared dataset keeps that trace and the
 * per-thread ranges, not the graph (see PrDataset).
 */

#ifndef PAGESIM_GRAPH_PAGERANK_WORKLOAD_HH
#define PAGESIM_GRAPH_PAGERANK_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/generator.hh"
#include "workload/access_pattern.hh"
#include "workload/workload.hh"

namespace pagesim
{

/** PageRank workload parameters. */
struct PageRankConfig
{
    GraphConfig graph{};
    unsigned threads = 12;
    unsigned iterations = 8;
    /** Cap on distinct rank pages replayed per edge page (scaling). */
    std::uint32_t maxDistinctPerEdgePage = 128;
    /**
     * CPU work to process one page of edges. Calibrated so the
     * compute:fault-cost balance at the scaled footprint matches the
     * full-scale system (fault latencies are real-world constants
     * while the dataset shrank; see DESIGN.md "Scaling").
     */
    SimDuration computePerEdgePage = usecs(300);
    /** CPU work per rank-vector page access. */
    SimDuration computePerRankTouch = nsecs(800);
};

/**
 * Immutable, trial-independent PageRank data: the per-edge-page
 * distinct-rank-page trace plus the graph's shape. Build once per
 * configuration and share across trials/threads (read-only).
 *
 * The graph itself (its CSR) is not kept. A trial never reads an edge
 * endpoint, only the rank pages each edge page references and where
 * each thread's edges start and end, so the build streams the edges
 * one page at a time from PowerLawEdgeSource straight into the trace.
 * The trace is exactly what the same graph as a materialized CSR
 * would yield.
 */
struct PrDataset
{
    PageRankConfig config;

    /** Graph size. */
    std::uint32_t vertices = 0;
    std::uint64_t edges = 0;

    /** Page-count layout (VMA sizes). */
    std::uint64_t offsetsPages = 0;
    std::uint64_t edgesPages = 0;
    std::uint64_t rankPages = 0; ///< per rank array

    /** Flat storage of rank-page offsets, windows per edge page. */
    std::vector<std::uint32_t> rankTrace;
    struct Window
    {
        std::uint32_t begin;
        std::uint32_t count;
    };
    std::vector<Window> edgePageWindows;

    /** Per-thread vertex ranges (contiguous, equal vertex counts). */
    std::vector<std::pair<std::uint32_t, std::uint32_t>> vertexRanges;
    /**
     * Per-thread [first, last) edge indices, the CSR offsets at its
     * vertex range's bounds. Their widths are unequal: the skew that
     * matters.
     */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> edgeRanges;
};

/** Build the shared dataset for a configuration. */
std::shared_ptr<const PrDataset>
buildPrDataset(const PageRankConfig &config);

/** The per-trial PageRank workload instance. */
class PageRankWorkload : public Workload
{
  public:
    explicit PageRankWorkload(std::shared_ptr<const PrDataset> dataset);

    const std::string &name() const override { return name_; }
    std::uint64_t footprintPages() const override;
    unsigned numThreads() const override;
    void build(WorkloadContext &ctx) override;
    std::unique_ptr<OpStream> stream(unsigned tid) override;
    SimBarrier *barrier(std::uint32_t id) override;

    void
    forEachBarrier(
        const std::function<void(SimBarrier &)> &fn) override
    {
        if (barrier_)
            fn(*barrier_);
    }

  private:
    std::shared_ptr<const PrDataset> data_;
    std::string name_ = "PageRank";
    std::unique_ptr<SimBarrier> barrier_;

    /** Per-trial VMA bases. */
    Vpn offsetsBase_ = 0;
    Vpn edgesBase_ = 0;
    Vpn rankBase_[2] = {0, 0};
};

} // namespace pagesim

#endif // PAGESIM_GRAPH_PAGERANK_WORKLOAD_HH
