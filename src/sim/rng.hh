/**
 * @file
 * Deterministic random number generation for the simulator.
 *
 * We implement xoshiro256** (seeded through splitmix64) rather than using
 * <random> engines/distributions so results are bit-identical across
 * standard library implementations. Every stochastic component of the
 * simulator draws from an Rng forked off the trial's root seed, which is
 * what makes a trial reproducible ("reboot" = new root seed).
 */

#ifndef PAGESIM_SIM_RNG_HH
#define PAGESIM_SIM_RNG_HH

#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/serialize.hh"

namespace pagesim
{

/** SplitMix64 single-step hash; also used to scramble zipfian ranks. */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Exact `x % d` for a divisor fixed at construction, by multiplication
 * instead of a 64-bit divide: Lemire, Kaser & Kurz, "Faster Remainder
 * by Direct Computation" (2019), `fastmod_u64`. With
 * M = ceil(2^128 / d) (wrapping to 0 for d = 1), the remainder is the
 * high 64 bits of (M * x mod 2^128) * d. The 128 fractional bits are
 * at least the 64 + log2(d) the paper's theorem asks for, so it holds
 * for every 64-bit x and d > 0, not just on average.
 */
class FastMod
{
  public:
    explicit FastMod(std::uint64_t d)
        : m_(~static_cast<__uint128_t>(0) / d + 1), d_(d)
    {
        assert(d > 0);
    }

    std::uint64_t divisor() const { return d_; }

    /** x % divisor(). */
    std::uint64_t
    operator()(std::uint64_t x) const
    {
        const __uint128_t frac = m_ * x;
        // (frac * d) >> 128 from two 64x64 products.
        const __uint128_t lo =
            (static_cast<__uint128_t>(static_cast<std::uint64_t>(frac)) *
             d_) >> 64;
        const __uint128_t hi =
            static_cast<__uint128_t>(static_cast<std::uint64_t>(frac >> 64)) *
            d_;
        return static_cast<std::uint64_t>((lo + hi) >> 64);
    }

  private:
    __uint128_t m_;
    std::uint64_t d_;
};

/** xoshiro256** pseudo-random generator with convenience draws. */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /**
     * Derive an independent child generator. Children with distinct
     * @p stream values are statistically independent of the parent and
     * of each other; forking does not perturb this generator's state.
     */
    Rng fork(std::uint64_t stream) const;

    /** Next raw 64-bit value. */
    std::uint64_t
    nextU64()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    nextDouble()
    {
        // 53 high bits -> uniform in [0,1).
        return static_cast<double>(nextU64() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [lo, hi] (inclusive); requires lo <= hi. */
    std::uint64_t uniformInt(std::uint64_t lo, std::uint64_t hi);

    /** Uniform double in [lo, hi). */
    double uniformReal(double lo, double hi);

    /** Bernoulli draw: true with probability @p p. */
    bool bernoulli(double p);

    /** Normal draw via Box-Muller. */
    double normal(double mean, double stddev);

    /** Exponential draw with the given mean. */
    double exponential(double mean);

    /**
     * Log-normal draw parameterized by the target (linear-space) mean
     * and the sigma of the underlying normal.
     */
    double logNormalMean(double mean, double sigma);

    /** The mu that gives LogNormal(mu, sigma) the linear-space @p mean. */
    static double
    logNormalMu(double mean, double sigma)
    {
        // E[X] = exp(mu + sigma^2/2) for X ~ LogNormal(mu, sigma).
        return std::log(mean) - 0.5 * sigma * sigma;
    }

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(
                uniformInt(0, i - 1));
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Checkpoint the full generator state (see sim/serialize.hh). */
    void
    visitState(StateIO &io)
    {
        for (std::uint64_t &s : s_)
            io.u64(s);
        io.boolean(haveSpareNormal_);
        io.f64(spareNormal_);
    }

    /**
     * The image must hold exactly this generator: the bytes
     * visitState() writes on save, and a decoded state that differs
     * in any word (the spare normal's flag and value included) is a
     * mismatch. For a generator its owner derives instead of storing.
     */
    void
    expectState(StateIO &io) const
    {
        for (const std::uint64_t s : s_)
            io.expect(s);
        io.expect<std::uint8_t>(haveSpareNormal_ ? 1 : 0);
        io.expect(std::bit_cast<std::uint64_t>(spareNormal_));
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
    bool haveSpareNormal_ = false;
    // lint:fp-state-ok(feeds a decision where normal is drawn: the SSD service-time jitter, which orders completions)
    double spareNormal_ = 0.0;
};

/**
 * YCSB-style Zipfian generator over [0, n).
 *
 * Uses the Gray et al. rejection-free algorithm with precomputed zeta,
 * identical to the generator in the YCSB reference implementation. With
 * scramble() enabled, ranks are permuted through a 64-bit hash so hot
 * items are scattered across the key space (YCSB's ScrambledZipfian).
 *
 * Every draw is the rank `n * pow(x, alpha)` truncates to, bit for bit,
 * but most draws skip `pow`: when alpha = 1/(1-theta) rounds to a small
 * integer k (theta 0.99 -> 100, 0.8 -> 5), x^k by squaring decides the
 * rank whenever the result is provably far from an integer boundary
 * (see rankOf() and DESIGN.md "Zipfian draws without pow"). The scramble's
 * `% n` is a FastMod.
 */
class ZipfianGenerator
{
  public:
    /** YCSB's default skew. */
    static constexpr double kDefaultTheta = 0.99;

    /**
     * @param n      number of items
     * @param theta  skew parameter in (0, 1)
     * @param scrambled scatter ranks through a hash (ScrambledZipfian)
     */
    ZipfianGenerator(std::uint64_t n, double theta = kDefaultTheta,
                     bool scrambled = true);

    /** Draw the next item index in [0, n). */
    std::uint64_t
    next(Rng &rng)
    {
        const std::uint64_t rank = rankOf(rng.nextDouble());
        return scrambled_ ? modN_(splitmix64(rank)) : rank;
    }

    /** The rank, before scrambling, a uniform draw @p u maps to. */
    std::uint64_t
    rankOf(double u) const
    {
        const double uz = u * zetan_;
        std::uint64_t rank;
        if (uz < 1.0) {
            rank = 0;
        } else if (uz < 1.0 + thetaPowHalf_) {
            rank = 1;
        } else {
            const double x = eta_ * u - eta_ + 1.0;
            // The reference rank is trunc(R), R = n * pow(x, alpha) in
            // doubles. With y = n * x^k by squaring, the constructor's
            // 2^-42 plus libm's 1 ulp and the two products' roundings
            // keep |R - y| < 2^-40 y. Rounding is monotone and R is a
            // double, so y*(1-2^-40) <= R <= y*(1+2^-40) still holds
            // after those products round: when both truncate alike,
            // so does R.
            bool exact = false;
            if (powK_ != 0) {
                const double y =
                    static_cast<double>(n_) * powUint(x, powK_);
                rank = static_cast<std::uint64_t>(y * (1.0 - 0x1p-40));
                exact = rank == static_cast<std::uint64_t>(
                                    y * (1.0 + 0x1p-40));
            }
            if (!exact)
                rank = static_cast<std::uint64_t>(
                    static_cast<double>(n_) * std::pow(x, alpha_));
            if (rank >= n_)
                rank = n_ - 1;
        }
        return rank;
    }

    std::uint64_t itemCount() const { return n_; }
    double theta() const { return theta_; }
    /** k of the pow-free path (alpha rounded), or 0 if it is off. */
    unsigned powFreeExponent() const { return powK_; }

  private:
    /**
     * zeta(n, theta) = sum_{i=1..n} i^-theta, an O(n) pow loop. Memoized
     * process-wide on the exact (n, theta) bits: every YCSB draw table
     * and zipfian pattern segment of every rig asks for the same few
     * values, and a cached value is the very double the loop returns.
     */
    static double zeta(std::uint64_t n, double theta);

    /**
     * x^k by square-and-multiply. For 0 < x <= 1 and no underflow the
     * result carries the error of k-1 rounded products, at most
     * (k-1)2^-53 / (1 - (k-1)2^-53) < k*2^-52 relative.
     */
    static double
    powUint(double x, unsigned k)
    {
        double result = 1.0;
        for (;;) {
            if (k & 1u)
                result *= x;
            k >>= 1;
            if (k == 0)
                return result;
            x *= x;
        }
    }

    std::uint64_t n_;
    double theta_;
    bool scrambled_;
    double alpha_;
    double zetan_;
    double eta_;
    double thetaPowHalf_;
    /** Integer exponent of the pow-free path; 0 when it is off. */
    unsigned powK_ = 0;
    FastMod modN_;
};

} // namespace pagesim

#endif // PAGESIM_SIM_RNG_HH
