/**
 * @file
 * SimActor: base class for schedulable simulated threads.
 *
 * Workload threads and kernel daemons (kswapd, the MG-LRU aging thread)
 * are actors. An actor alternates between:
 *
 *  - running: its step() was dispatched; it performs simulated work and
 *    must end by calling exactly one of yieldAfter(), sleepFor(),
 *    block(), or finish();
 *  - runnable-waiting: rescheduled after yieldAfter(); it counts toward
 *    CPU load for the whole interval (the interval *is* its CPU slice);
 *  - blocked: waiting on I/O or a wake() from another component; it does
 *    not count toward CPU load;
 *  - sleeping: a timed block (daemon intervals);
 *  - finished: terminal.
 *
 * Because yieldAfter() charges a whole chunk at the load factor sampled
 * at charge time, actors should keep chunks small (the memory manager
 * chunks application work at ~tens of microseconds).
 */

#ifndef PAGESIM_SIM_ACTOR_HH
#define PAGESIM_SIM_ACTOR_HH

#include <cstdint>
#include <string>

#include "sim/serialize.hh"
#include "sim/simulation.hh"
#include "sim/types.hh"

namespace pagesim
{

/** A simulated thread of execution. */
class SimActor
{
  public:
    enum class State
    {
        Created,
        Running,   ///< inside step()
        Runnable,  ///< scheduled to run again (holds a CPU share)
        Blocked,   ///< waiting for wake()
        Sleeping,  ///< timed wait
        Finished,
    };

    /**
     * @param sim        owning simulation
     * @param name       debug/stat name
     * @param foreground true for workload threads whose completion ends
     *                   the trial; false for daemons
     */
    SimActor(Simulation &sim, std::string name, bool foreground);

    virtual ~SimActor();

    SimActor(const SimActor &) = delete;
    SimActor &operator=(const SimActor &) = delete;

    /** Make the actor runnable and schedule its first step. */
    void start(SimDuration initial_delay = 0);

    /** Wake a blocked or sleeping actor; no-op in other states. */
    void wake();

    State state() const { return state_; }
    bool finished() const { return state_ == State::Finished; }
    const std::string &name() const { return name_; }

    /** Total CPU work (undilated ns) this actor has charged. */
    SimDuration cpuWork() const { return cpuWork_; }

    /** Total wall time this actor spent blocked on wake(). */
    SimDuration blockedTime() const { return blockedTime_; }

    /**
     * Metrics-track cache slot (see MetricsCollector::trackFor): the
     * collector that stamped it is recorded so a cached id can never
     * leak across collectors. Not simulation state — purely a lookup
     * cache, which is why it is mutable through a const actor.
     */
    struct TrackCacheSlot
    {
        const void *owner = nullptr;
        std::uint32_t id = 0;
    };
    TrackCacheSlot &metricsTrackCache() const { return trackCache_; }

    /**
     * Pending io-wait slot (see FaultSpanRecorder): a blocked actor
     * waits on at most one in-flight I/O, so the recorder keeps the
     * open wait here instead of in a side table. Same ownership rule
     * and mutability rationale as the track cache.
     */
    struct IoWaitSlot
    {
        const void *owner = nullptr; ///< recorder that opened it
        SimTime start = 0;
        std::uint64_t vpn = 0;
        std::uint32_t track = 0;
        bool live = false;
    };
    IoWaitSlot &metricsIoWait() const { return ioWaitSlot_; }

    /**
     * Checkpoint support. An actor's event-queue footprint at a
     * quiescent point is at most ONE pending event: the step dispatch
     * of a Runnable actor or the wake timer of a Sleeping one (Blocked
     * actors wait on an external wake; Created/Finished have nothing).
     * visitState() covers the scalar state plus that event's (when,
     * seq); after the checkpoint machinery restores the clock it calls
     * reschedulePending() on each actor in ascending (when, seq) order,
     * which re-creates the closures with fresh epochs/sequence numbers
     * while preserving the dispatch-order relation.
     */
    virtual void visitState(StateIO &io);

    /** True when this actor owns a pending event (see visitState). */
    bool
    hasPendingEvent() const
    {
        return state_ == State::Runnable || state_ == State::Sleeping;
    }

    /** Due time of the pending event (valid if hasPendingEvent()). */
    SimTime pendingAt() const { return pendingAt_; }

    /** Sequence number of the pending event at save time. */
    std::uint64_t pendingSeq() const { return pendingSeq_; }

    /** Re-create this actor's pending event after a clock restore. */
    void reschedulePending();

  protected:
    /** Perform one scheduling quantum of work; see class comment. */
    virtual void step() = 0;

    /**
     * Charge @p cpu_work of compute (dilated by current CPU load) and
     * reschedule step() when it completes.
     */
    void yieldAfter(SimDuration cpu_work);

    /** Stop being runnable; wake() (or timeout never) resumes. */
    void block();

    /** Timed block: resume after @p wall of wall-clock sim time. */
    void sleepFor(SimDuration wall);

    /** Terminal: the actor will never run again. */
    void finish();

    Simulation &sim() { return sim_; }
    SimTime now() const { return sim_.now(); }

  private:
    void dispatch();
    void scheduleStep(SimTime when);

    Simulation &sim_;
    // lint:state-cov-ok(actor identity fixed at construction)
    std::string name_;
    // lint:state-cov-ok(registration flag fixed at construction; the CPU-model count is restored by Simulation)
    bool foreground_;
    State state_ = State::Created;
    SimDuration cpuWork_ = 0;
    SimDuration blockedTime_ = 0;
    SimTime blockedSince_ = 0;
    /// Guards against stale scheduled dispatches after block()/wake()
    /// races: only the dispatch carrying the current epoch runs.
    // lint:state-cov-ok(stale-wake guard: a fresh restore target has no orphaned dispatches to invalidate)
    std::uint64_t epoch_ = 0;
    /// (when, seq) of the live pending event, maintained by
    /// scheduleStep()/sleepFor() for checkpointing. Stale events
    /// orphaned by an epoch bump are deliberately NOT tracked: they
    /// are no-ops in the original run and simply absent after a
    /// restore, which is behavior-identical.
    SimTime pendingAt_ = 0;
    std::uint64_t pendingSeq_ = 0;
    mutable TrackCacheSlot trackCache_;
    mutable IoWaitSlot ioWaitSlot_;
};

} // namespace pagesim

#endif // PAGESIM_SIM_ACTOR_HH
