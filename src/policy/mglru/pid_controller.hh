/**
 * @file
 * PID controller for MG-LRU tier protection.
 *
 * MG-LRU does not promote file-descriptor-accessed pages straight to
 * the youngest generation; instead they climb "tiers" within their
 * generation. To avoid starving genuinely hot file pages, the kernel
 * compares per-tier refault rates against the base tier and protects
 * tiers that refault more, driven by a feedback controller (paper
 * Sec. III-D, LWN refs [4], [14]).
 *
 * We implement a textbook discrete PID on the error
 *     e_t = refaultRate(tier) - refaultRate(tier 0)
 * with exponential decay of history (matching the kernel's periodic
 * halving of counters). A positive control output means "protect this
 * tier from eviction".
 */

#ifndef PAGESIM_POLICY_MGLRU_PID_CONTROLLER_HH
#define PAGESIM_POLICY_MGLRU_PID_CONTROLLER_HH

#include <array>
#include <cstdint>

#include "sim/serialize.hh"

namespace pagesim
{

/** Gains and decay for TierPidController. */
struct PidConfig
{
    double kp = 1.0;    ///< proportional gain
    double ki = 0.25;   ///< integral gain
    double kd = 0.10;   ///< derivative gain
    double decay = 0.5; ///< counter decay applied each update epoch
    /** Minimum evictions in a tier before its rate is trusted. */
    std::uint64_t minEvictions = 8;
};

/** Per-tier refault/eviction bookkeeping plus the PID law. */
class TierPidController
{
  public:
    static constexpr unsigned kMaxTiers = 4;

    explicit TierPidController(const PidConfig &config = PidConfig{});

    /** A page from @p tier was evicted. */
    void recordEviction(unsigned tier);

    /** A page evicted from @p tier refaulted. */
    void recordRefault(unsigned tier);

    /**
     * Advance one control epoch (called from aging passes): recompute
     * per-tier outputs, then decay the counters.
     */
    void update();

    /** Should @p tier be protected from eviction right now? */
    bool isProtected(unsigned tier) const;

    /** Smoothed refault rate of @p tier (diagnostic). */
    double refaultRate(unsigned tier) const;

    /** Raw control output of @p tier (diagnostic / tests). */
    double output(unsigned tier) const;

    std::uint64_t evictions(unsigned tier) const;
    std::uint64_t refaults(unsigned tier) const;

    /** Checkpoint the full controller state. */
    void
    visitState(StateIO &io)
    {
        for (unsigned t = 0; t < kMaxTiers; ++t) {
            io.f64(evictions_[t]);
            io.f64(refaults_[t]);
            io.f64(integral_[t]);
            io.f64(prevError_[t]);
            io.f64(output_[t]);
            io.u64(rawEvictions_[t]);
            io.u64(rawRefaults_[t]);
        }
    }

  private:
    // lint:state-cov-ok(controller gains fixed at construction; only the error state moves)
    PidConfig config_;
    std::array<double, kMaxTiers> evictions_{};
    std::array<double, kMaxTiers> refaults_{};
    std::array<double, kMaxTiers> integral_{};
    std::array<double, kMaxTiers> prevError_{};
    std::array<double, kMaxTiers> output_{};
    std::array<std::uint64_t, kMaxTiers> rawEvictions_{};
    std::array<std::uint64_t, kMaxTiers> rawRefaults_{};
};

} // namespace pagesim

#endif // PAGESIM_POLICY_MGLRU_PID_CONTROLLER_HH
