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

/**
 * The draw as it was before the pow-free path: a copy of the
 * constructor's doubles and of the rank's pow expression, so a change
 * to either side shows up as a mismatch.
 */
class PowReferenceZipfian
{
  public:
    PowReferenceZipfian(std::uint64_t n, double theta) : n_(n)
    {
        double zetan = 0.0;
        for (std::uint64_t i = 1; i <= n; ++i)
            zetan += 1.0 / std::pow(static_cast<double>(i), theta);
        const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
        zetan_ = zetan;
        alpha_ = 1.0 / (1.0 - theta);
        eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
               (1.0 - zeta2 / zetan);
        thetaPowHalf_ = std::pow(0.5, theta);
    }

    double alpha() const { return alpha_; }
    double eta() const { return eta_; }

    std::uint64_t
    rankOf(double u) const
    {
        const double uz = u * zetan_;
        if (uz < 1.0)
            return 0;
        if (uz < 1.0 + thetaPowHalf_)
            return 1;
        const auto rank = static_cast<std::uint64_t>(
            static_cast<double>(n_) *
            std::pow(eta_ * u - eta_ + 1.0, alpha_));
        return rank >= n_ ? n_ - 1 : rank;
    }

  private:
    std::uint64_t n_;
    double zetan_;
    double alpha_;
    double eta_;
    double thetaPowHalf_;
};

TEST(Zipfian, FastPathMatchesPowReference)
{
    struct Case
    {
        std::uint64_t n;
        double theta;
        unsigned k; // expected pow-free exponent, 0 = all fallback
    };
    // Default and Big1M item counts at YCSB's skew, the integer-alpha
    // thetas 0.8 (k 5) and 0.95 (k 20), and theta 0.6 (alpha 2.5).
    const Case cases[] = {
        {48000, 0.99, 100}, {262144, 0.99, 100}, {48000, 0.8, 5},
        {100000, 0.95, 20}, {48000, 0.6, 0},
    };
    constexpr int kDraws = 2'000'000;
    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message() << "n=" << c.n
                                        << " theta=" << c.theta);
        ZipfianGenerator z(c.n, c.theta, false);
        EXPECT_EQ(z.powFreeExponent(), c.k);
        const PowReferenceZipfian ref(c.n, c.theta);
        Rng r1(0x5eed + c.n), r2(0x5eed + c.n);
        int mismatches = 0;
        for (int i = 0; i < kDraws; ++i)
            mismatches += z.next(r1) != ref.rankOf(r2.nextDouble());
        EXPECT_EQ(mismatches, 0);

        // Random draws almost never land within a few ulps of a rank
        // boundary, where x^k and pow can truncate apart and only the
        // bracket test keeps them equal. Invert the formula at ranks
        // across [2, n) and try the 64 doubles on each side of each
        // crossing.
        int probes = 0;
        for (std::uint64_t r = 2; r < c.n; r += c.n / 2000 + 1) {
            const double x = std::pow(static_cast<double>(r) /
                                          static_cast<double>(c.n),
                                      1.0 / ref.alpha());
            double u = (x - 1.0 + ref.eta()) / ref.eta();
            for (int i = 0; i < 64; ++i)
                u = std::nextafter(u, 0.0);
            for (int i = 0; i < 128; ++i, u = std::nextafter(u, 1.0)) {
                if (u < 0.0 || u >= 1.0)
                    continue;
                ++probes;
                mismatches += z.rankOf(u) != ref.rankOf(u);
            }
        }
        EXPECT_GT(probes, 100000);
        EXPECT_EQ(mismatches, 0);
    }
}

TEST(FastMod, MatchesHardwareRemainder)
{
    std::vector<std::uint64_t> divisors = {
        1, 2, 3, 7, 48000, 262144, (1ull << 32) - 1, 1ull << 32,
        (1ull << 32) + 1, 1ull << 63, (1ull << 63) + 1, UINT64_MAX - 1,
        UINT64_MAX};
    Rng r(53);
    for (int i = 0; i < 200; ++i) {
        // Random divisors of every width, not just full 64-bit ones.
        const std::uint64_t d = r.nextU64() >> r.uniformInt(0, 63);
        divisors.push_back(d == 0 ? 1 : d);
    }
    for (const std::uint64_t d : divisors) {
        const FastMod mod(d);
        ASSERT_EQ(mod.divisor(), d);
        std::vector<std::uint64_t> xs = {0,        1,     d - 1, d,
                                         d + 1,    2 * d, UINT64_MAX,
                                         UINT64_MAX - 1};
        for (int i = 0; i < 2000; ++i)
            xs.push_back(r.nextU64());
        for (const std::uint64_t x : xs)
            ASSERT_EQ(mod(x), x % d) << "x=" << x << " d=" << d;
    }
}

} // namespace
} // namespace pagesim
