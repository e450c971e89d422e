#include "graph/generator.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace pagesim
{

AliasSampler::AliasSampler(const std::vector<double> &weights)
    : table_(weights.size(), Column{0.0, 0})
{
    assert(!weights.empty());
    const std::size_t n = weights.size();
    const double total = std::accumulate(weights.begin(), weights.end(),
                                         0.0);
    assert(total > 0.0);

    // Scale weights so the mean is 1, then split into small/large and
    // pair them (Vose's stable construction). A column's prob holds
    // its scaled weight until it is paired or left over.
    for (std::size_t i = 0; i < n; ++i)
        table_[i].prob = weights[i] * static_cast<double>(n) / total;

    std::vector<std::uint32_t> small;
    std::vector<std::uint32_t> large;
    small.reserve(n);
    large.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (table_[i].prob < 1.0)
            small.push_back(static_cast<std::uint32_t>(i));
        else
            large.push_back(static_cast<std::uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
        const std::uint32_t s = small.back();
        small.pop_back();
        const std::uint32_t l = large.back();
        large.pop_back();
        table_[s].alias = l;
        double &pl = table_[l].prob;
        pl = (pl + table_[s].prob) - 1.0;
        if (pl < 1.0)
            small.push_back(l);
        else
            large.push_back(l);
    }
    for (std::uint32_t i : large)
        table_[i].prob = 1.0;
    for (std::uint32_t i : small)
        table_[i].prob = 1.0;
}

std::uint32_t
AliasSampler::sample(Rng &rng) const
{
    const std::uint32_t col = static_cast<std::uint32_t>(
        rng.uniformInt(0, table_.size() - 1));
    const Column &c = table_[col];
    return rng.nextDouble() < c.prob ? col : c.alias;
}

void
AliasSampler::sampleBatch(Rng &rng, std::uint32_t *out,
                          std::size_t k) const
{
    // One edge page per chunk. The draw loop makes the RNG calls in
    // sample()'s order and prefetches each column; the resolve loop
    // then picks column or alias with a mask, not a branch (the coin
    // is close to fair on most columns, so a branch mispredicts).
    constexpr std::size_t kChunk = 1024;
    std::uint32_t cols[kChunk];
    double coins[kChunk];
    const std::uint64_t last = table_.size() - 1;
    for (std::size_t done = 0; done < k; done += kChunk) {
        const std::size_t len = std::min(kChunk, k - done);
        for (std::size_t i = 0; i < len; ++i) {
            cols[i] = static_cast<std::uint32_t>(rng.uniformInt(0, last));
            __builtin_prefetch(&table_[cols[i]]);
            coins[i] = rng.nextDouble();
        }
        for (std::size_t i = 0; i < len; ++i) {
            const Column &c = table_[cols[i]];
            const std::uint32_t keep =
                0u - static_cast<std::uint32_t>(coins[i] < c.prob);
            out[done + i] = c.alias ^ ((cols[i] ^ c.alias) & keep);
        }
    }
}

namespace
{

/**
 * Deterministic per-vertex degree weight: hash the vertex id to a
 * pseudo-rank so hubs are scattered across the id space, then give it
 * a zipf-like weight rank^(-alpha).
 */
std::vector<double>
degreeWeights(const GraphConfig &config)
{
    const std::uint32_t n = config.vertices;
    assert(n >= 2);
    std::vector<double> weights(n);
    for (std::uint32_t v = 0; v < n; ++v) {
        const std::uint64_t h = splitmix64(config.seed ^ (v + 1));
        const double rank =
            1.0 + static_cast<double>(h % n); // pseudo-rank in [1, n]
        weights[v] = std::pow(rank, -config.alpha);
    }
    return weights;
}

/** Degrees scaled so their sum approximates targetEdges. */
std::vector<std::uint64_t>
degreeOffsets(const GraphConfig &config,
              const std::vector<double> &weights)
{
    const std::uint32_t n = config.vertices;
    const double max_deg =
        std::max(2.0, config.maxDegreeFraction * static_cast<double>(n));
    const double wsum =
        std::accumulate(weights.begin(), weights.end(), 0.0);
    std::vector<std::uint64_t> offsets(n + 1);
    offsets[0] = 0;
    const double scale = static_cast<double>(config.targetEdges) / wsum;
    for (std::uint32_t v = 0; v < n; ++v) {
        double d = weights[v] * scale;
        d = std::clamp(d, 1.0, max_deg);
        offsets[v + 1] = offsets[v] + static_cast<std::uint64_t>(d + 0.5);
    }
    return offsets;
}

} // namespace

PowerLawEdgeSource::PowerLawEdgeSource(const GraphConfig &config)
    : PowerLawEdgeSource(config, degreeWeights(config))
{
}

PowerLawEdgeSource::PowerLawEdgeSource(const GraphConfig &config,
                                       const std::vector<double> &weights)
    : offsets_(degreeOffsets(config, weights)), sampler_(weights),
      rng_(config.seed ^ 0xfeedc0defee1deadull)
{
}

CsrGraph
generatePowerLawGraph(const GraphConfig &config)
{
    PowerLawEdgeSource edges(config);
    CsrGraph g;
    g.dst.resize(edges.numEdges());
    edges.draw(g.dst.data(), g.dst.size());
    g.offsets = edges.offsets();
    assert(g.valid());
    return g;
}

} // namespace pagesim
