/**
 * @file
 * BackgroundNoise: the rest of the operating system.
 *
 * The paper runs one benchmark at a time on a freshly booted Linux
 * box — but a freshly booted Linux box still runs journald, timers,
 * monitoring agents, and kernel housekeeping, all of which allocate
 * short-lived memory and burn CPU at times that differ per boot. Under
 * heavy memory pressure these small perturbations matter: stealing a
 * few hundred frames shifts WHICH pages the replacement policy evicts
 * right at the retention cliff, where a whole rescanned structure
 * either survives or refaults — the bistability behind the paper's
 * large per-trial fault-count variance (Fig. 2).
 *
 * The daemon alternates idle periods with bursts that grab a small
 * fraction of memory (forcing reclaim ripples) and a dash of CPU,
 * then release it.
 */

#ifndef PAGESIM_KERNEL_BACKGROUND_NOISE_HH
#define PAGESIM_KERNEL_BACKGROUND_NOISE_HH

#include <vector>

#include "mem/types.hh"
#include "sim/actor.hh"
#include "sim/rng.hh"

namespace pagesim
{

class MemoryManager;

/** Tunables for BackgroundNoise. */
struct NoiseConfig
{
    /** Mean idle time between bursts (exponential). */
    SimDuration idleMean = msecs(800);
    /** Burst memory grab as a fraction of total frames (uniform). */
    double grabFracLo = 0.005;
    double grabFracHi = 0.02;
    /** How long a burst holds its memory (uniform). */
    SimDuration holdLo = msecs(50);
    SimDuration holdHi = msecs(400);
    /** CPU burned per burst (uniform). */
    SimDuration cpuLo = usecs(200);
    SimDuration cpuHi = msecs(2);
    /** Master switch. */
    bool enabled = true;
};

/** Background OS activity daemon. */
class BackgroundNoise : public SimActor
{
  public:
    BackgroundNoise(Simulation &sim, MemoryManager &mm, Rng rng,
                    const NoiseConfig &config = NoiseConfig{});

    std::uint64_t bursts() const { return bursts_; }
    std::uint64_t framesGrabbed() const { return framesGrabbed_; }

    void
    visitState(StateIO &io) override
    {
        SimActor::visitState(io);
        rng_.visitState(io);
        io.enumU8(phase_, Phase::Release);
        io.podVec(held_);
        io.u64(bursts_);
        io.u64(framesGrabbed_);
    }

  protected:
    void step() override;

  private:
    enum class Phase
    {
        Idle,
        Grab,
        Hold,
        Release,
    };

    MemoryManager &mm_;
    Rng rng_;
    // lint:state-cov-ok(construction parameter replayed when the restore rig is rebuilt)
    NoiseConfig config_;
    Phase phase_ = Phase::Idle;
    std::vector<Pfn> held_;
    std::uint64_t bursts_ = 0;
    std::uint64_t framesGrabbed_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_KERNEL_BACKGROUND_NOISE_HH
