#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generator.hh"
#include "graph/pagerank_workload.hh"
#include "sim/serialize.hh"

namespace pagesim
{
namespace
{

GraphConfig
smallGraph()
{
    GraphConfig cfg;
    cfg.vertices = 10000;
    cfg.targetEdges = 80000;
    cfg.seed = 5;
    return cfg;
}

/** checksum64 over a vector's elements in order. */
template <typename T>
std::uint64_t
laneDigest(const std::vector<T> &v)
{
    return checksum64(v.data(), v.size() * sizeof(T));
}

/** checksum64 over every dataset field a trial reads. */
std::uint64_t
datasetDigest(const PrDataset &d)
{
    std::vector<std::uint64_t> words{d.offsetsPages, d.edgesPages,
                                     d.rankPages};
    for (std::uint32_t page : d.rankTrace)
        words.push_back(page);
    for (const PrDataset::Window &w : d.edgePageWindows) {
        words.push_back(w.begin);
        words.push_back(w.count);
    }
    for (unsigned t = 0; t < d.vertexRanges.size(); ++t) {
        const auto [vlo, vhi] = d.vertexRanges[t];
        const auto [elo, ehi] = d.edgeRanges[t];
        words.insert(words.end(), {vlo, vhi, ehi - elo, elo, ehi});
    }
    return laneDigest(words);
}

/** The PageRank config the harness builds for a scale preset
 *  (Default: 2^19 vertices, 2^22 edges, 8 iterations; Small: 2^16,
 *  2^19, 3). */
PageRankConfig
harnessPrConfig(std::uint32_t vertices, std::uint64_t edges,
                unsigned iterations)
{
    PageRankConfig cfg;
    cfg.graph.vertices = vertices;
    cfg.graph.targetEdges = edges;
    cfg.iterations = iterations;
    return cfg;
}

TEST(AliasSampler, MatchesWeights)
{
    std::vector<double> weights{1.0, 2.0, 4.0, 1.0};
    AliasSampler sampler(weights);
    Rng rng(3);
    std::vector<int> counts(4, 0);
    constexpr int kN = 80000;
    for (int i = 0; i < kN; ++i)
        ++counts[sampler.sample(rng)];
    EXPECT_NEAR(counts[2] / double(kN), 0.5, 0.02);
    EXPECT_NEAR(counts[0] / double(kN), 0.125, 0.02);
}

TEST(AliasSampler, SingleElement)
{
    AliasSampler sampler({5.0});
    Rng rng(1);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(sampler.sample(rng), 0u);
}

TEST(AliasSampler, BatchDrawsMatchScalarDraws)
{
    std::vector<double> weights(3000);
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights[i] = 1.0 / static_cast<double>(1 + i % 97);
    const AliasSampler wide(weights);
    const AliasSampler single({5.0});
    for (const AliasSampler *sampler : {&wide, &single}) {
        for (std::size_t k : {0, 1, 1023, 1024, 1025}) {
            Rng scalar_rng(77);
            Rng batch_rng(77);
            std::vector<std::uint32_t> want(k);
            for (std::uint32_t &v : want)
                v = sampler->sample(scalar_rng);
            std::vector<std::uint32_t> got(k, UINT32_MAX);
            sampler->sampleBatch(batch_rng, got.data(), k);
            EXPECT_EQ(got, want) << "k=" << k;
            EXPECT_EQ(batch_rng.nextU64(), scalar_rng.nextU64())
                << "k=" << k << ": the RNG must advance identically";
        }
    }
}

TEST(Generator, ProducesValidCsr)
{
    const CsrGraph g = generatePowerLawGraph(smallGraph());
    EXPECT_TRUE(g.valid());
    EXPECT_EQ(g.numVertices(), 10000u);
    // Edge count within 25% of target (clamping shifts it a bit).
    EXPECT_GT(g.numEdges(), 60000u);
    EXPECT_LT(g.numEdges(), 120000u);
}

TEST(Generator, DegreesAreHeavyTailed)
{
    const CsrGraph g = generatePowerLawGraph(smallGraph());
    std::vector<std::uint64_t> degs;
    degs.reserve(g.numVertices());
    for (std::uint32_t v = 0; v < g.numVertices(); ++v)
        degs.push_back(g.degree(v));
    std::sort(degs.begin(), degs.end());
    const std::uint64_t median = degs[degs.size() / 2];
    const std::uint64_t top = degs.back();
    EXPECT_GE(top, 20 * std::max<std::uint64_t>(median, 1))
        << "hubs must dwarf the median vertex";
    EXPECT_GE(degs.front(), 1u) << "no isolated vertices";
}

TEST(Generator, HubsScatteredAcrossIdSpace)
{
    const CsrGraph g = generatePowerLawGraph(smallGraph());
    // Find the top-16 degree vertices; they should not cluster in one
    // id decile.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> by_degree;
    for (std::uint32_t v = 0; v < g.numVertices(); ++v)
        by_degree.emplace_back(g.degree(v), v);
    std::sort(by_degree.rbegin(), by_degree.rend());
    std::set<std::uint32_t> deciles;
    for (int i = 0; i < 16; ++i)
        deciles.insert(by_degree[i].second * 10 / g.numVertices());
    EXPECT_GE(deciles.size(), 3u);
}

TEST(Generator, DeterministicPerSeed)
{
    const CsrGraph a = generatePowerLawGraph(smallGraph());
    const CsrGraph b = generatePowerLawGraph(smallGraph());
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.dst, b.dst);
}

TEST(Generator, GraphDigestPinned)
{
    const CsrGraph g = generatePowerLawGraph(smallGraph());
    EXPECT_EQ(g.numEdges(), 76444u);
    EXPECT_EQ(laneDigest(g.offsets), 4955148594976450205ull);
    EXPECT_EQ(laneDigest(g.dst), 4640744408787515365ull);
}

TEST(Generator, EndpointsFollowDegreeWeight)
{
    const CsrGraph g = generatePowerLawGraph(smallGraph());
    // The most popular destination should be a high-degree vertex.
    std::vector<std::uint32_t> in_count(g.numVertices(), 0);
    for (std::uint32_t d : g.dst)
        ++in_count[d];
    const std::uint32_t hottest = static_cast<std::uint32_t>(
        std::max_element(in_count.begin(), in_count.end()) -
        in_count.begin());
    // Its out-degree weight made it popular.
    EXPECT_GT(g.degree(hottest), 10u);
}

TEST(PrDataset, LayoutAndTraceConsistent)
{
    PageRankConfig cfg;
    cfg.graph = smallGraph();
    cfg.threads = 4;
    cfg.iterations = 2;
    auto data = buildPrDataset(cfg);
    // The dataset's shape is the graph's, built independently.
    const CsrGraph g = generatePowerLawGraph(cfg.graph);
    EXPECT_EQ(data->vertices, g.numVertices());
    EXPECT_EQ(data->edges, g.numEdges());
    EXPECT_EQ(data->edgesPages,
              (g.numEdges() * 4 + kPageSize - 1) / kPageSize);
    EXPECT_EQ(data->edgePageWindows.size(), data->edgesPages);
    // Every trace entry is a valid rank-page offset.
    for (std::uint32_t off : data->rankTrace)
        EXPECT_LT(off, data->rankPages);
    // Windows tile the trace.
    std::uint64_t total = 0;
    for (const auto &w : data->edgePageWindows) {
        EXPECT_EQ(w.begin, total);
        total += w.count;
        EXPECT_LE(w.count, cfg.maxDistinctPerEdgePage);
    }
    EXPECT_EQ(total, data->rankTrace.size());
}

TEST(PrDataset, ThreadPartitionIsVertexBalancedEdgeSkewed)
{
    PageRankConfig cfg;
    cfg.graph = smallGraph();
    cfg.threads = 8;
    auto data = buildPrDataset(cfg);
    const CsrGraph g = generatePowerLawGraph(cfg.graph);
    ASSERT_EQ(data->vertexRanges.size(), 8u);
    ASSERT_EQ(data->edgeRanges.size(), 8u);
    std::uint64_t min_e = UINT64_MAX, max_e = 0, total = 0;
    std::uint32_t covered = 0;
    for (unsigned t = 0; t < 8; ++t) {
        const auto [lo, hi] = data->vertexRanges[t];
        const auto [elo, ehi] = data->edgeRanges[t];
        EXPECT_EQ(elo, g.offsets[lo]) << "thread " << t;
        EXPECT_EQ(ehi, g.offsets[hi]) << "thread " << t;
        covered += hi - lo;
        min_e = std::min(min_e, ehi - elo);
        max_e = std::max(max_e, ehi - elo);
        total += ehi - elo;
    }
    EXPECT_EQ(covered, g.numVertices());
    EXPECT_EQ(total, g.numEdges());
    EXPECT_GT(max_e, min_e) << "edge work must be skewed";
}

TEST(PrDataset, DigestPinned)
{
    // Every trial fingerprint and checkpoint image with a PageRank
    // tenant depends on these bytes; pinned from the CSR-backed build.
    const auto small =
        buildPrDataset(harnessPrConfig(1u << 16, 1u << 19, 3));
    EXPECT_EQ(small->rankTrace.size(), 64975u);
    EXPECT_EQ(datasetDigest(*small), 7801523733180857539ull);

    const auto def =
        buildPrDataset(harnessPrConfig(1u << 19, 1u << 22, 8));
    EXPECT_EQ(def->rankTrace.size(), 522880u);
    EXPECT_EQ(datasetDigest(*def), 2623134107398141188ull);
}

TEST(PageRankWorkload, StreamsCoverAllIterations)
{
    PageRankConfig cfg;
    cfg.graph = smallGraph();
    cfg.threads = 2;
    cfg.iterations = 3;
    auto data = buildPrDataset(cfg);
    PageRankWorkload wl(data);
    EXPECT_EQ(wl.numThreads(), 2u);
    EXPECT_GT(wl.footprintPages(), 0u);

    AddressSpace space(0);
    WorkloadContext ctx;
    ctx.space = &space;
    wl.build(ctx);
    EXPECT_EQ(space.mappedPages(), wl.footprintPages());

    auto stream = wl.stream(0);
    Op op;
    int barriers = 0;
    std::uint64_t touches = 0;
    while (stream->next(op)) {
        if (op.kind == Op::Kind::Barrier)
            ++barriers;
        if (op.kind == Op::Kind::Touch) {
            ++touches;
            EXPECT_TRUE(space.table().at(op.vpn).mapped())
                << "every touch lands inside a VMA";
        }
    }
    EXPECT_EQ(barriers, 1 + 3) << "load barrier + one per iteration";
    EXPECT_GT(touches, 100u);
}

} // namespace
} // namespace pagesim
