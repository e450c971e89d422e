#include "graph/pagerank_workload.hh"

#include <algorithm>
#include <cassert>

namespace pagesim
{

namespace
{

constexpr std::uint64_t kOffsetBytes = 8; // offsets entry size
constexpr std::uint64_t kEdgeBytes = 4;   // dst entry size
constexpr std::uint64_t kRankBytes = 8;   // rank entry size

constexpr std::uint64_t
pagesFor(std::uint64_t bytes)
{
    return (bytes + kPageSize - 1) / kPageSize;
}

/** Edges stored per 4 KB page. */
constexpr std::uint64_t kEdgesPerPage = kPageSize / kEdgeBytes;
/** Rank entries per 4 KB page. */
constexpr std::uint64_t kRanksPerPage = kPageSize / kRankBytes;

} // namespace

std::shared_ptr<const PrDataset>
buildPrDataset(const PageRankConfig &config)
{
    auto data = std::make_shared<PrDataset>();
    data->config = config;
    PowerLawEdgeSource edges(config.graph);
    const std::uint32_t n = edges.numVertices();
    const std::uint64_t m = edges.numEdges();
    data->vertices = n;
    data->edges = m;

    data->offsetsPages = pagesFor((n + 1) * kOffsetBytes);
    data->edgesPages = pagesFor(m * kEdgeBytes);
    data->rankPages = pagesFor(n * kRankBytes);

    // Extract the per-edge-page distinct rank-page trace, drawing the
    // edges one page at a time. seen_in[p] is 1 + the last edge page
    // that referenced rank page p, so `distinct` keeps each page's
    // first-appearance order without a per-page set.
    const std::uint64_t edge_pages = data->edgesPages;
    data->edgePageWindows.resize(edge_pages);
    data->rankTrace.reserve(
        edge_pages * std::min<std::uint64_t>(
                         config.maxDistinctPerEdgePage, kEdgesPerPage));
    Rng sample_rng(config.graph.seed ^ 0xab5e11edu);
    std::vector<std::uint32_t> endpoints(kEdgesPerPage);
    std::vector<std::uint64_t> seen_in(data->rankPages, 0);
    std::vector<std::uint32_t> distinct;
    std::vector<std::uint32_t> capped;
    for (std::uint64_t ep = 0; ep < edge_pages; ++ep) {
        const std::size_t len = static_cast<std::size_t>(
            std::min(kEdgesPerPage, m - ep * kEdgesPerPage));
        edges.draw(endpoints.data(), len);
        distinct.clear();
        for (std::size_t i = 0; i < len; ++i) {
            const std::uint32_t page =
                static_cast<std::uint32_t>(endpoints[i] / kRanksPerPage);
            if (seen_in[page] != ep + 1) {
                seen_in[page] = ep + 1;
                distinct.push_back(page);
            }
        }
        // Cap by sampling (keep a uniformly spaced subset, preserving
        // the page-popularity mix) to bound the replayed op count.
        if (distinct.size() > config.maxDistinctPerEdgePage) {
            capped.clear();
            const double step =
                static_cast<double>(distinct.size()) /
                config.maxDistinctPerEdgePage;
            double pos = sample_rng.nextDouble() * step;
            while (capped.size() < config.maxDistinctPerEdgePage &&
                   pos < static_cast<double>(distinct.size())) {
                capped.push_back(
                    distinct[static_cast<std::size_t>(pos)]);
                pos += step;
            }
            distinct.swap(capped);
        }
        data->edgePageWindows[ep] = PrDataset::Window{
            static_cast<std::uint32_t>(data->rankTrace.size()),
            static_cast<std::uint32_t>(distinct.size())};
        data->rankTrace.insert(data->rankTrace.end(), distinct.begin(),
                               distinct.end());
    }

    // Contiguous, vertex-balanced thread partition: equal vertices,
    // unequal edges — the degree-skew straggler source.
    const std::vector<std::uint64_t> &offsets = edges.offsets();
    data->vertexRanges.resize(config.threads);
    data->edgeRanges.resize(config.threads);
    for (unsigned t = 0; t < config.threads; ++t) {
        const std::uint32_t lo =
            static_cast<std::uint32_t>(std::uint64_t(n) * t /
                                       config.threads);
        const std::uint32_t hi =
            static_cast<std::uint32_t>(std::uint64_t(n) * (t + 1) /
                                       config.threads);
        data->vertexRanges[t] = {lo, hi};
        data->edgeRanges[t] = {offsets[lo], offsets[hi]};
    }
    return data;
}

PageRankWorkload::PageRankWorkload(
    std::shared_ptr<const PrDataset> dataset)
    : data_(std::move(dataset)),
      barrier_(std::make_unique<SimBarrier>(data_->config.threads))
{
}

std::uint64_t
PageRankWorkload::footprintPages() const
{
    return data_->offsetsPages + data_->edgesPages +
           2 * data_->rankPages;
}

unsigned
PageRankWorkload::numThreads() const
{
    return data_->config.threads;
}

void
PageRankWorkload::build(WorkloadContext &ctx)
{
    AddressSpace &space = *ctx.space;
    offsetsBase_ = space.map("pr.offsets", data_->offsetsPages);
    edgesBase_ = space.map("pr.edges", data_->edgesPages);
    rankBase_[0] = space.map("pr.rank_a", data_->rankPages);
    rankBase_[1] = space.map("pr.rank_b", data_->rankPages);
}

SimBarrier *
PageRankWorkload::barrier(std::uint32_t)
{
    return barrier_.get();
}

std::unique_ptr<OpStream>
PageRankWorkload::stream(unsigned tid)
{
    const PrDataset &d = *data_;
    const PageRankConfig &cfg = d.config;
    const auto [vlo, vhi] = d.vertexRanges[tid];
    const auto [elo, ehi] = d.edgeRanges[tid];
    const std::uint64_t ep_lo = elo / kEdgesPerPage;
    const std::uint64_t ep_hi =
        ehi == elo ? ep_lo : (ehi - 1) / kEdgesPerPage + 1;

    const Vpn off_lo = offsetsBase_ + vlo * kOffsetBytes / kPageSize;
    const Vpn off_hi =
        offsetsBase_ + (std::uint64_t(vhi) * kOffsetBytes) / kPageSize +
        1;
    const Vpn rank_lo_off = vlo / kRanksPerPage;
    const Vpn rank_hi_off = (vhi + kRanksPerPage - 1) / kRanksPerPage;

    std::vector<Segment> segs;
    segs.reserve((ep_hi - ep_lo) * 2 * cfg.iterations + 64);

    // Load phase: materialize this thread's slice of the graph.
    segs.push_back(SeqTouch{off_lo, off_hi - off_lo, true, false,
                            usecs(1)});
    segs.push_back(SeqTouch{edgesBase_ + ep_lo, ep_hi - ep_lo, true,
                            false, usecs(1)});
    segs.push_back(SeqTouch{rankBase_[0] + rank_lo_off,
                            rank_hi_off - rank_lo_off, true, false,
                            nsecs(500)});
    segs.push_back(BarrierSeg{0});

    for (unsigned iter = 0; iter < cfg.iterations; ++iter) {
        const Vpn src = rankBase_[iter % 2];
        const Vpn dst = rankBase_[1 - iter % 2];
        // Stream the offsets slice, then each edge page followed by
        // the exact distinct rank pages its edges reference.
        segs.push_back(SeqTouch{off_lo, off_hi - off_lo, false, false,
                                nsecs(300)});
        for (std::uint64_t ep = ep_lo; ep < ep_hi; ++ep) {
            segs.push_back(SeqTouch{edgesBase_ + ep, 1, false, false,
                                    cfg.computePerEdgePage});
            const PrDataset::Window &w = d.edgePageWindows[ep];
            if (w.count > 0) {
                segs.push_back(IndexedTouch{
                    d.rankTrace.data() + w.begin, w.count, src, false,
                    cfg.computePerRankTouch});
            }
        }
        // Write the new ranks for the owned vertex range.
        segs.push_back(SeqTouch{dst + rank_lo_off,
                                rank_hi_off - rank_lo_off, true, false,
                                nsecs(500)});
        segs.push_back(BarrierSeg{0});
    }
    return std::make_unique<PatternStream>(std::move(segs));
}

} // namespace pagesim
