#include "sim/rng.hh"

#include <bit>
#include <cassert>
#include <map>
#include <mutex>
#include <utility>

namespace pagesim
{

Rng::Rng(std::uint64_t seed)
{
    // Expand the seed with splitmix64, per the xoshiro authors'
    // recommendation; guarantees a nonzero state.
    std::uint64_t x = seed;
    for (auto &word : s_) {
        x = splitmix64(x);
        word = x;
    }
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 0x9e3779b97f4a7c15ull;
}

Rng
Rng::fork(std::uint64_t stream) const
{
    // Mix the parent's state words with the stream id so children are
    // decorrelated from the parent and from each other.
    std::uint64_t seed = splitmix64(s_[0] ^ rotl(s_[2], 17) ^
                                    splitmix64(stream * 0xd1342543de82ef95ull + 1));
    return Rng(seed);
}

std::uint64_t
Rng::uniformInt(std::uint64_t lo, std::uint64_t hi)
{
    assert(lo <= hi);
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) // full 2^64 range
        return nextU64();
    // Lemire's multiply-shift bounded draw with rejection for exactness.
    std::uint64_t x = nextU64();
    __uint128_t m = static_cast<__uint128_t>(x) * span;
    std::uint64_t l = static_cast<std::uint64_t>(m);
    if (l < span) {
        const std::uint64_t t = (0 - span) % span;
        while (l < t) {
            x = nextU64();
            m = static_cast<__uint128_t>(x) * span;
            l = static_cast<std::uint64_t>(m);
        }
    }
    return lo + static_cast<std::uint64_t>(m >> 64);
}

double
Rng::uniformReal(double lo, double hi)
{
    return lo + (hi - lo) * nextDouble();
}

bool
Rng::bernoulli(double p)
{
    return nextDouble() < p;
}

double
Rng::normal(double mean, double stddev)
{
    if (haveSpareNormal_) {
        haveSpareNormal_ = false;
        return mean + stddev * spareNormal_;
    }
    double u1;
    do {
        u1 = nextDouble();
    } while (u1 <= 1e-300);
    const double u2 = nextDouble();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    spareNormal_ = r * std::sin(theta);
    haveSpareNormal_ = true;
    return mean + stddev * r * std::cos(theta);
}

double
Rng::exponential(double mean)
{
    double u;
    do {
        u = nextDouble();
    } while (u <= 1e-300);
    return -mean * std::log(u);
}

double
Rng::logNormalMean(double mean, double sigma)
{
    return std::exp(normal(logNormalMu(mean, sigma), sigma));
}

namespace
{

/** Largest integer exponent the pow-free Zipfian path evaluates. */
constexpr double kMaxPowK = 128;

} // namespace

ZipfianGenerator::ZipfianGenerator(std::uint64_t n, double theta,
                                   bool scrambled)
    : n_(n), theta_(theta), scrambled_(scrambled), modN_(n)
{
    assert(n_ >= 1);
    assert(theta_ > 0.0 && theta_ < 1.0);
    zetan_ = zeta(n_, theta_);
    const double zeta2 = zeta(2, theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
    thetaPowHalf_ = std::pow(0.5, theta_);

    // rankOf() maps u to x in [1-eta, 1]. Turn the pow-free path on only if
    // x^k is within 2^-42 (relative) of x^alpha for every such x,
    // counting the squaring's rounding (k*2^-52) and the factor
    // x^(alpha-k) = exp((alpha-k) ln x), whose distance from 1 is
    // about |alpha-k| |ln(1-eta)|; and only if x^k cannot underflow
    // (e^-700 > DBL_MIN), so every product stays normal.
    const double k = std::nearbyint(alpha_);
    const double lnLow = std::log1p(-eta_); // ln(1 - eta)
    if (eta_ >= 0.0 && eta_ < 1.0 && k >= 1.0 && k <= kMaxPowK &&
        -lnLow * k <= 700.0 &&
        k * 0x1p-52 + std::fabs(alpha_ - k) * -lnLow <= 0x1p-42)
        powK_ = static_cast<unsigned>(k);
}

double
ZipfianGenerator::zeta(std::uint64_t n, double theta)
{
    // Keyed on theta's bit pattern: the memo must never hand back a
    // value computed for a different double, however close.
    using Key = std::pair<std::uint64_t, std::uint64_t>;
    static std::mutex mutex;
    static std::map<Key, double> memo;
    const Key key{n, std::bit_cast<std::uint64_t>(theta)};
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (const auto it = memo.find(key); it != memo.end())
            return it->second;
    }
    // Computed outside the lock so generators with other keys are not
    // held up; a concurrent duplicate computes the identical sum.
    double sum = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        sum += 1.0 / std::pow(static_cast<double>(i), theta);
    std::lock_guard<std::mutex> lock(mutex);
    memo.emplace(key, sum);
    return sum;
}

} // namespace pagesim
