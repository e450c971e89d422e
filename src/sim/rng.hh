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

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/serialize.hh"

namespace pagesim
{

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
    std::uint64_t nextU64();

    /** Uniform double in [0, 1). */
    double nextDouble();

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

  private:
    std::uint64_t s_[4];
    bool haveSpareNormal_ = false;
    double spareNormal_ = 0.0;
};

/**
 * YCSB-style Zipfian generator over [0, n).
 *
 * Uses the Gray et al. rejection-free algorithm with precomputed zeta,
 * identical to the generator in the YCSB reference implementation. With
 * scramble() enabled, ranks are permuted through a 64-bit hash so hot
 * items are scattered across the key space (YCSB's ScrambledZipfian).
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
    std::uint64_t next(Rng &rng);

    std::uint64_t itemCount() const { return n_; }
    double theta() const { return theta_; }

  private:
    /**
     * zeta(n, theta) = sum_{i=1..n} i^-theta, an O(n) pow loop. Memoized
     * process-wide on the exact (n, theta) bits: every YCSB thread of
     * every rig (restore targets included) asks for the same few
     * values, and a cached value is the very double the loop returns.
     */
    static double zeta(std::uint64_t n, double theta);

    std::uint64_t n_;
    double theta_;
    bool scrambled_;
    double alpha_;
    double zetan_;
    double eta_;
    double thetaPowHalf_;
};

/** SplitMix64 single-step hash; also used to scramble zipfian ranks. */
std::uint64_t splitmix64(std::uint64_t x);

} // namespace pagesim

#endif // PAGESIM_SIM_RNG_HH
