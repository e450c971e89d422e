/**
 * @file
 * Processor-sharing CPU contention model.
 *
 * pagesim does not simulate instruction execution; workload and kernel
 * threads charge "CPU work" (nanoseconds of compute at an idle machine).
 * When more threads are runnable than there are logical CPUs, everyone
 * slows down proportionally — the classic processor-sharing queueing
 * approximation. This is what lets a busy MG-LRU aging thread steal
 * cycles from application threads, one of the contention effects the
 * paper identifies as a variance source (Sec. VI-A).
 */

#ifndef PAGESIM_SIM_CPU_MODEL_HH
#define PAGESIM_SIM_CPU_MODEL_HH

#include <cassert>
#include <cstdint>

#include "sim/serialize.hh"
#include "sim/types.hh"

namespace pagesim
{

/** Tracks how many entities are runnable and dilates CPU work. */
class CpuModel
{
  public:
    explicit
    CpuModel(unsigned num_cpus)
        : numCpus_(num_cpus)
    {
        assert(num_cpus > 0);
    }

    unsigned numCpus() const { return numCpus_; }
    unsigned runnable() const { return runnable_; }
    unsigned peakRunnable() const { return peakRunnable_; }

    /**
     * Current dilation factor: 1.0 when the machine has spare CPUs,
     * runnable/num_cpus when oversubscribed.
     */
    double
    loadFactor() const
    {
        if (runnable_ <= numCpus_)
            return 1.0;
        return static_cast<double>(runnable_) / numCpus_;
    }

    /** Wall-clock duration needed to complete @p work of CPU work now. */
    SimDuration
    wallTimeFor(SimDuration work) const
    {
        return static_cast<SimDuration>(
            static_cast<double>(work) * loadFactor());
    }

    /** An entity became runnable at time @p now. */
    void
    onRunnable(SimTime now)
    {
        accumulate(now);
        ++runnable_;
        if (runnable_ > peakRunnable_)
            peakRunnable_ = runnable_;
    }

    /** An entity blocked/finished at time @p now. */
    void
    onBlocked(SimTime now)
    {
        assert(runnable_ > 0);
        accumulate(now);
        --runnable_;
    }

    /** Time-weighted mean runnable count up to @p now. */
    double
    meanRunnable(SimTime now)
    {
        accumulate(now);
        if (now == 0)
            return static_cast<double>(runnable_);
        return runnableTimeProduct_ / static_cast<double>(now);
    }

    /**
     * Checkpoint the mutable load state. Restore overwrites the
     * counters wholesale: a rebuilt-for-restore simulation constructs
     * every actor without starting it, so runnable_ is zero at the
     * time a restore runs and no onRunnable/onBlocked compensation
     * is needed.
     */
    void
    visitState(StateIO &io)
    {
        io.u32(runnable_);
        io.u32(peakRunnable_);
        io.u64(lastChange_);
        io.f64(runnableTimeProduct_);
    }

  private:
    void
    accumulate(SimTime now)
    {
        assert(now >= lastChange_);
        runnableTimeProduct_ += static_cast<double>(runnable_) *
                                static_cast<double>(now - lastChange_);
        lastChange_ = now;
    }

    // lint:state-cov-ok(machine shape fixed at construction from the validated config)
    unsigned numCpus_;
    unsigned runnable_ = 0;
    unsigned peakRunnable_ = 0;
    SimTime lastChange_ = 0;
    double runnableTimeProduct_ = 0.0;
};

} // namespace pagesim

#endif // PAGESIM_SIM_CPU_MODEL_HH
