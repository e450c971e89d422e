/**
 * @file
 * Compressed sparse row graph representation.
 *
 * A generated power-law graph materialized as real offsets and
 * destination arrays (generatePowerLawGraph). The PageRank workload
 * replays exactly this graph's edges but never holds the CSR: its
 * dataset is built from the same edge stream a page at a time (see
 * PrDataset).
 */

#ifndef PAGESIM_GRAPH_CSR_HH
#define PAGESIM_GRAPH_CSR_HH

#include <cstdint>
#include <vector>

namespace pagesim
{

/** A directed graph in CSR form (in-edges, for pull-style PageRank). */
struct CsrGraph
{
    /** offsets[v]..offsets[v+1] index into dst for vertex v's edges. */
    std::vector<std::uint64_t> offsets;
    /** Edge endpoints (sources of in-edges, for pull PageRank). */
    std::vector<std::uint32_t> dst;

    std::uint32_t
    numVertices() const
    {
        return offsets.empty()
                   ? 0
                   : static_cast<std::uint32_t>(offsets.size() - 1);
    }

    std::uint64_t numEdges() const { return dst.size(); }

    std::uint64_t
    degree(std::uint32_t v) const
    {
        return offsets[v + 1] - offsets[v];
    }

    /** Structural invariants: monotone offsets, endpoints in range. */
    bool
    valid() const
    {
        if (offsets.empty() || offsets.front() != 0)
            return false;
        for (std::size_t i = 1; i < offsets.size(); ++i)
            if (offsets[i] < offsets[i - 1])
                return false;
        if (offsets.back() != dst.size())
            return false;
        const std::uint32_t n = numVertices();
        for (std::uint32_t d : dst)
            if (d >= n)
                return false;
        return true;
    }
};

} // namespace pagesim

#endif // PAGESIM_GRAPH_CSR_HH
