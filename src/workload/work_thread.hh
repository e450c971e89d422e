/**
 * @file
 * WorkThread: the actor that interprets a workload's OpStream against
 * the MemoryManager.
 *
 * Execution model: the thread accumulates CPU work in a CostSink and
 * yields whenever a chunk's worth (MmConfig::appChunk) has built up,
 * so the processor-sharing CPU model sees it at fine granularity. A
 * blocked access (fault I/O, frame stall) suspends the thread
 * mid-stream; the pending op is retried after wake-up. Latency
 * markers and barriers flush accumulated work first so their
 * timestamps are exact.
 */

#ifndef PAGESIM_WORKLOAD_WORK_THREAD_HH
#define PAGESIM_WORKLOAD_WORK_THREAD_HH

#include <cstdint>
#include <memory>

#include "kernel/memory_manager.hh"
#include "sim/actor.hh"
#include "workload/workload.hh"

namespace pagesim
{

/** Per-thread execution counters. */
struct WorkThreadStats
{
    std::uint64_t touches = 0;
    std::uint64_t blockedFaults = 0; ///< accesses that had to block
    std::uint64_t barriersPassed = 0;
    SimTime finishTime = 0;
};

/** One simulated application thread. */
class WorkThread : public SimActor
{
  public:
    /**
     * @param sim      owning simulation
     * @param mm       kernel MM
     * @param workload parent workload (barriers, latency callbacks)
     * @param space    address space the thread runs in
     * @param tid      thread index within the workload
     */
    WorkThread(Simulation &sim, MemoryManager &mm, Workload &workload,
               AddressSpace &space, unsigned tid);

    unsigned tid() const { return tid_; }
    const WorkThreadStats &threadStats() const { return tstats_; }

    void
    visitState(StateIO &io) override
    {
        SimActor::visitState(io);
        pending_.visitState(io);
        io.boolean(havePending_);
        io.u64(carry_);
        io.u64(requestStart_);
        io.u64(tstats_.touches);
        io.u64(tstats_.blockedFaults);
        io.u64(tstats_.barriersPassed);
        io.u64(tstats_.finishTime);
        stream_->visitState(io);
    }

  protected:
    void step() override;

  private:
    /** Charge pending work and reschedule; true if we yielded. */
    bool flushIfDue(CostSink &sink, bool force);

    MemoryManager &mm_;
    Workload &workload_;
    AddressSpace &space_;
    // lint:state-cov-ok(thread identity fixed at construction)
    unsigned tid_;
    std::unique_ptr<OpStream> stream_;

    Op pending_{};
    bool havePending_ = false;
    /** Work accrued before an involuntary block, charged after wake. */
    SimDuration carry_ = 0;
    SimTime requestStart_ = 0;
    WorkThreadStats tstats_;
};

} // namespace pagesim

#endif // PAGESIM_WORKLOAD_WORK_THREAD_HH
