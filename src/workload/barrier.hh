/**
 * @file
 * Reusable barrier for workload threads.
 *
 * Models the synchronization structure the paper leans on to explain
 * PageRank's runtime behavior: per-iteration barriers make an
 * iteration's duration equal to its slowest thread's, so "a few
 * critical faults" on one thread dominate (Sec. V-B).
 */

#ifndef PAGESIM_WORKLOAD_BARRIER_HH
#define PAGESIM_WORKLOAD_BARRIER_HH

#include <cassert>
#include <vector>

#include "sim/actor.hh"

namespace pagesim
{

/** A counting barrier over SimActors, reusable across generations. */
class SimBarrier
{
  public:
    explicit
    SimBarrier(unsigned parties)
        : parties_(parties)
    {
        assert(parties >= 1);
        waiting_.reserve(parties);
    }

    unsigned parties() const { return parties_; }
    unsigned arrived() const { return arrived_; }
    std::uint64_t generation() const { return generation_; }

    /**
     * @p actor arrives at the barrier.
     * @return true if the barrier released (the caller proceeds and
     *         all waiters have been woken); false if the caller must
     *         block() and will be woken by the last arriver.
     */
    bool
    arrive(SimActor &actor)
    {
        ++arrived_;
        if (arrived_ < parties_) {
            waiting_.push_back(&actor);
            return false;
        }
        // Last arriver: release everyone.
        arrived_ = 0;
        ++generation_;
        std::vector<SimActor *> woken;
        woken.swap(waiting_);
        for (SimActor *waiter : woken)
            waiter->wake();
        return true;
    }

    /**
     * Checkpoint the barrier. Waiting actors travel as indices into
     * the rig's actor table (StateIO::actorList), in arrival order,
     * which the restore side must preserve — wake order depends on
     * it.
     */
    void
    visitState(StateIO &io)
    {
        io.u32(arrived_);
        io.u64(generation_);
        io.actorList(waiting_);
    }

  private:
    // lint:state-cov-ok(party count fixed at construction from the thread config)
    unsigned parties_;
    unsigned arrived_ = 0;
    std::uint64_t generation_ = 0;
    std::vector<SimActor *> waiting_;
};

} // namespace pagesim

#endif // PAGESIM_WORKLOAD_BARRIER_HH
