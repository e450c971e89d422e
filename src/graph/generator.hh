/**
 * @file
 * Power-law graph generation (Chung-Lu style).
 *
 * Matches the structural features the paper's PageRank analysis leans
 * on: a heavy-tailed degree distribution with hubs scattered across
 * the vertex-ID space (like GAP's synthetic Kronecker inputs), so
 * contiguous per-thread vertex ranges carry *unequal* edge work.
 *
 * PowerLawEdgeSource is the one generator. The PageRank dataset reads
 * its edges a page at a time and keeps only the rank pages they
 * reference; generatePowerLawGraph() drains the same stream into a
 * full CSR for callers that want the graph itself. Both see the same
 * RNG draws, so the dataset is a digest of exactly that CSR.
 */

#ifndef PAGESIM_GRAPH_GENERATOR_HH
#define PAGESIM_GRAPH_GENERATOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/csr.hh"
#include "sim/rng.hh"

namespace pagesim
{

/** Parameters for the power-law generator. */
struct GraphConfig
{
    std::uint32_t vertices = 1u << 19;
    /** Approximate total edges (exact count is degree-sum). */
    std::uint64_t targetEdges = 1ull << 22;
    /** Degree tail exponent: weight ~ rank^(-alpha), alpha in (0,1). */
    double alpha = 0.75;
    /** Degree cap as a fraction of vertices. */
    double maxDegreeFraction = 0.08;
    std::uint64_t seed = 42;
};

/**
 * Sample from a fixed discrete distribution in O(1) (Walker's alias
 * method). Used to draw edge endpoints proportional to degree weight.
 */
class AliasSampler
{
  public:
    explicit AliasSampler(const std::vector<double> &weights);

    std::uint32_t sample(Rng &rng) const;

    /**
     * Draw @p k samples into @p out: the same values, and the same
     * @p rng state afterwards, as k sample() calls. Each chunk draws
     * all its (column, coin) pairs first, in sample()'s order, then
     * resolves them, so the random table loads overlap instead of
     * each one stalling a data-dependent branch.
     */
    void sampleBatch(Rng &rng, std::uint32_t *out, std::size_t k) const;

  private:
    /** Keep the drawn column with probability prob, else take alias. */
    struct Column
    {
        double prob;
        std::uint32_t alias;
    };
    std::vector<Column> table_;
};

/**
 * A power-law (Chung-Lu style) graph as a stream of in-edges.
 *
 * Degrees are assigned by hashing vertex ids into a zipf-like rank
 * (hubs are scattered, not clustered at low ids), scaled so the degree
 * sum approximates targetEdges. Edge endpoints are drawn from an alias
 * sampler proportional to degree weight, so popular vertices are also
 * popular destinations — the skew PageRank's random rank-vector reads
 * inherit. The degree offsets are built up front; endpoints are drawn
 * on demand in CSR edge order, so a consumer that only digests the
 * edges never holds the m-sized endpoint lane.
 */
class PowerLawEdgeSource
{
  public:
    explicit PowerLawEdgeSource(const GraphConfig &config);

    std::uint32_t
    numVertices() const
    {
        return static_cast<std::uint32_t>(offsets_.size() - 1);
    }

    std::uint64_t numEdges() const { return offsets_.back(); }

    /** offsets()[v]..offsets()[v+1] are vertex v's edge indices. */
    const std::vector<std::uint64_t> &offsets() const { return offsets_; }

    /** Draw the next @p k endpoints, in edge order, into @p out. */
    void
    draw(std::uint32_t *out, std::size_t k)
    {
        sampler_.sampleBatch(rng_, out, k);
    }

  private:
    PowerLawEdgeSource(const GraphConfig &config,
                       const std::vector<double> &weights);

    std::vector<std::uint64_t> offsets_;
    AliasSampler sampler_;
    Rng rng_;
};

/** Generate a power-law graph and materialize it as a CSR. */
CsrGraph generatePowerLawGraph(const GraphConfig &config);

} // namespace pagesim

#endif // PAGESIM_GRAPH_GENERATOR_HH
