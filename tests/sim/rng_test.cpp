#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <thread>
#include <vector>

#include "sim/rng.hh"
#include "sim/serialize.hh"

namespace pagesim
{
namespace
{

TEST(Rng, DeterministicForSeed)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.nextU64() == b.nextU64();
    EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsIndependentOfParentState)
{
    Rng a(7);
    Rng child1 = a.fork(1);
    // Forking must not perturb the parent.
    Rng b(7);
    (void)b.fork(1);
    Rng child2 = b.fork(1);
    EXPECT_EQ(child1.nextU64(), child2.nextU64());
}

TEST(Rng, ForkStreamsDecorrelated)
{
    Rng a(7);
    Rng c1 = a.fork(1);
    Rng c2 = a.fork(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += c1.nextU64() == c2.nextU64();
    EXPECT_EQ(same, 0);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        const double x = r.nextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng r(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const std::uint64_t x = r.uniformInt(3, 10);
        ASSERT_GE(x, 3u);
        ASSERT_LE(x, 10u);
        saw_lo |= x == 3;
        saw_hi |= x == 10;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleValue)
{
    Rng r(5);
    EXPECT_EQ(r.uniformInt(42, 42), 42u);
}

TEST(Rng, UniformIntIsRoughlyUniform)
{
    Rng r(11);
    constexpr int kBuckets = 16;
    constexpr int kDraws = 160000;
    std::vector<int> counts(kBuckets, 0);
    for (int i = 0; i < kDraws; ++i)
        ++counts[r.uniformInt(0, kBuckets - 1)];
    const double expect = static_cast<double>(kDraws) / kBuckets;
    for (int c : counts) {
        EXPECT_NEAR(c, expect, expect * 0.1);
    }
}

TEST(Rng, NormalMomentsMatch)
{
    Rng r(13);
    constexpr int kN = 200000;
    double sum = 0, sumsq = 0;
    for (int i = 0; i < kN; ++i) {
        const double x = r.normal(10.0, 2.0);
        sum += x;
        sumsq += x * x;
    }
    const double mean = sum / kN;
    const double var = sumsq / kN - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ExponentialMeanMatches)
{
    Rng r(17);
    constexpr int kN = 200000;
    double sum = 0;
    for (int i = 0; i < kN; ++i)
        sum += r.exponential(5.0);
    EXPECT_NEAR(sum / kN, 5.0, 0.1);
}

TEST(Rng, LogNormalMeanMatches)
{
    Rng r(19);
    constexpr int kN = 400000;
    double sum = 0;
    for (int i = 0; i < kN; ++i)
        sum += r.logNormalMean(100.0, 0.3);
    EXPECT_NEAR(sum / kN, 100.0, 1.5);
}

TEST(Rng, BernoulliFrequencyMatches)
{
    Rng r(23);
    int hits = 0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(hits / static_cast<double>(kN), 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng r(29);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, orig);
}

TEST(Zipfian, RanksAreSkewed)
{
    // Unscrambled zipf: item 0 must be the most popular and the head
    // must dominate.
    Rng r(31);
    ZipfianGenerator z(1000, 0.99, false);
    std::map<std::uint64_t, int> counts;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i)
        ++counts[z.next(r)];
    int head = 0;
    for (std::uint64_t i = 0; i < 10; ++i)
        head += counts.count(i) ? counts[i] : 0;
    // With theta=0.99 the top-10 of 1000 items draw >30% of requests.
    EXPECT_GT(head, kN * 3 / 10);
    // And item 0 beats item 500 decisively.
    EXPECT_GT(counts[0], 50 * std::max(counts[500], 1));
}

TEST(Zipfian, AllDrawsInRange)
{
    Rng r(37);
    ZipfianGenerator z(123, 0.8, true);
    for (int i = 0; i < 50000; ++i)
        EXPECT_LT(z.next(r), 123u);
}

TEST(Zipfian, ScrambledSpreadsHotItems)
{
    // Scrambled zipfian must not concentrate popularity on low ids.
    Rng r(41);
    ZipfianGenerator z(1000, 0.99, true);
    std::uint64_t low = 0, total = 0;
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t x = z.next(r);
        low += x < 100;
        ++total;
    }
    // Hot items are scattered: the lowest decile should hold far less
    // than the unscrambled case (~60%) — but it is still nonuniform.
    EXPECT_LT(static_cast<double>(low) / total, 0.4);
}

TEST(Zipfian, DeterministicTrace)
{
    Rng r1(43), r2(43);
    ZipfianGenerator z1(500, 0.9, true), z2(500, 0.9, true);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(z1.next(r1), z2.next(r2));
}

/** FNV-1a over 4096 scrambled draws of a fresh (n, theta) generator. */
std::uint64_t
zipfDigest(std::uint64_t n, double theta, std::uint64_t seed)
{
    Rng rng(seed);
    ZipfianGenerator z(n, theta, true);
    std::uint64_t h = kFnvOffset;
    for (int i = 0; i < 4096; ++i) {
        const std::uint64_t v = z.next(rng);
        h = fnv1a(&v, sizeof(v), h);
    }
    return h;
}

TEST(Zipfian, MemoizedZetaIsBitIdenticalAcrossThreads)
{
    // Pinned from the unmemoized O(n) zeta loop. (n, theta) pairs no
    // other test uses, so the four threads race to fill a cold memo
    // entry and the later lone generators read the cached value.
    constexpr std::uint64_t kN = 250007;
    constexpr std::uint64_t kWant077 = 14380371562303979203ull;
    constexpr std::uint64_t kWant078 = 1852252946748556043ull;

    std::vector<std::uint64_t> got(4, 0);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back(
            [&got, t] { got[t] = zipfDigest(kN, 0.77, 99); });
    for (std::thread &th : threads)
        th.join();
    for (std::uint64_t g : got)
        EXPECT_EQ(g, kWant077);
    EXPECT_EQ(zipfDigest(kN, 0.77, 99), kWant077);

    // Same n, different theta: the memo must not alias the entry above.
    EXPECT_EQ(zipfDigest(kN, 0.78, 99), kWant078);
}

} // namespace
} // namespace pagesim
