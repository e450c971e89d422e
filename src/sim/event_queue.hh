/**
 * @file
 * Discrete-event queue: the heart of the simulator.
 *
 * Events are arbitrary callables scheduled at absolute simulated times.
 * Ties are broken by insertion order (FIFO among equal timestamps) so
 * simulations are fully deterministic for a given seed.
 *
 * Internally this is one binary min-heap of 40-byte trivially
 * copyable records {when, seq, callback}. The pending set is small:
 * every actor holds at most one step or sleep event, the SSD model
 * one completion per service slot, plus a few timers. pagesim_bench
 * rounds (seeds 1-3) peak at 11-14 pending events on Big1M, 25-28 on
 * the fig grid and 42-44 on three-tenant colocation, so the whole set
 * is at most a few dozen records in one array. (A bucketed timing
 * wheel sifts less in an isolated hold model from 256 pending up, but
 * inside a trial its buckets, cursor scans and larger records cost
 * more than the sifts save.)
 *
 * Fused dispatch: the queue runs the root's callback in place and
 * leaves the root slot as a hole while it runs. The callback's first
 * schedule() fills the hole with the new record (the hole walks down
 * the smaller-child path to a leaf and the record sifts up from
 * there, as std::pop_heap places its last element), so an actor that
 * re-schedules itself every chunk costs one sift instead of a pop plus
 * a push. If the callback schedules nothing, the last record fills the
 * hole the same way. While the hole is open, pending() and empty()
 * do not count it, and runOne() must not be re-entered (asserted).
 *
 * Callbacks are InlineCalls (a function pointer plus 16 B of plain
 * captures), so the schedule/dispatch cycle performs no heap
 * allocation and the heap moves PODs.
 *
 * Dispatch order is strictly (time, insertion sequence); tests
 * cross-check it against a stable sort on randomized schedules,
 * including schedules made from inside callbacks.
 */

#ifndef PAGESIM_SIM_EVENT_QUEUE_HH
#define PAGESIM_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/inline_call.hh"
#include "sim/types.hh"

namespace pagesim
{

/**
 * A time-ordered queue of callbacks.
 *
 * The queue owns the simulated clock: time only advances when events are
 * dispatched, and it never goes backwards. Scheduling an event in the
 * past is a programming error and is clamped to "now" (with a counter
 * recording the violation, checked by tests).
 */
class EventQueue
{
  public:
    using Callback = InlineCall;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /** Number of events waiting to run (not the one running). */
    std::size_t pending() const { return heap_.size() - (hole_ ? 1 : 0); }

    /** True when no events remain. */
    bool empty() const { return pending() == 0; }

    /** Total number of events dispatched so far. */
    std::uint64_t dispatched() const { return dispatched_; }

    /** How many schedule() calls asked for a time in the past. */
    std::uint64_t pastSchedules() const { return pastSchedules_; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * @return a monotonically increasing event id (useful for tests).
     */
    std::uint64_t
    schedule(SimTime when, Callback cb)
    {
        if (when < now_) {
            ++pastSchedules_;
            when = now_;
        }
        const std::uint64_t id = nextSeq_++;
        if (hole_) {
            // First schedule from the running callback: take its slot.
            hole_ = false;
            fillRoot(Record{when, id, cb});
        } else {
            heap_.push_back(Record{when, id, cb});
            std::push_heap(heap_.begin(), heap_.end(), Later{});
        }
        return id;
    }

    /** Schedule @p cb to run @p delay after the current time. */
    std::uint64_t
    scheduleAfter(SimDuration delay, Callback cb)
    {
        return schedule(now_ + delay, cb);
    }

    /**
     * Dispatch the single earliest event.
     * @return false if the queue was empty.
     */
    bool
    runOne()
    {
        if (heap_.empty())
            return false;
        dispatchFront();
        return true;
    }

    /** Run until the queue is empty or @p limit events were dispatched. */
    void
    run(std::uint64_t limit = UINT64_MAX)
    {
        while (limit-- > 0 && runOne()) {
        }
    }

    /**
     * Run until simulated time reaches @p deadline (events at exactly
     * @p deadline still run) or the queue empties.
     */
    void
    runUntil(SimTime deadline)
    {
        while (!heap_.empty() && heap_.front().when <= deadline)
            dispatchFront();
        if (now_ < deadline)
            now_ = deadline;
    }

    /** Run until @p done returns true (checked after each event). */
    void
    runWhile(const std::function<bool()> &keep_going)
    {
        while (keep_going() && runOne()) {
        }
    }

    /**
     * Checkpoint-restore support: move the clock of an EMPTY queue
     * forward to @p now. Pending callbacks are closures and cannot be
     * serialized; instead a checkpoint is only taken at a quiescent
     * point where every pending event is an actor step/sleep, the
     * actors record their own (when) and re-schedule themselves after
     * the clock is restored (see SimActor::reschedulePending). Fresh
     * sequence numbers start from zero again; re-insertion in the
     * original (when, seq) order preserves the dispatch relation.
     */
    void
    restoreClock(SimTime now)
    {
        assert(heap_.empty() && "restoreClock requires an empty queue");
        now_ = now;
    }

  private:
    struct Record
    {
        SimTime when;
        std::uint64_t seq;
        Callback cb;
    };
    static_assert(sizeof(Record) == 40);

    /** Heap comparator: min-(when, seq) at the front. */
    struct Later
    {
        bool
        operator()(const Record &a, const Record &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /**
     * Run the earliest event (the heap is non-empty) with its slot
     * left as a hole for the callback's first schedule(); if it
     * schedules nothing, the last record fills the hole.
     */
    void
    dispatchFront()
    {
        assert(!hole_ && "runOne() re-entered from a callback");
        const Record &front = heap_.front();
        now_ = front.when;
        ++dispatched_;
        Callback cb = front.cb;
        hole_ = true;
        cb();
        if (hole_) {
            hole_ = false;
            const Record last = heap_.back();
            heap_.pop_back();
            if (!heap_.empty())
                fillRoot(last);
        }
    }

    /**
     * Place @p rec into the hole at the root: walk the hole down the
     * smaller-child path to a leaf (one compare a level), then sift
     * @p rec up from there.
     */
    void
    fillRoot(const Record &rec)
    {
        Record *const h = heap_.data();
        const std::size_t n = heap_.size();
        const Later later;
        std::size_t hole = 0;
        for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
            if (child + 1 < n && later(h[child], h[child + 1]))
                ++child;
            h[hole] = h[child];
            hole = child;
        }
        while (hole > 0) {
            const std::size_t parent = (hole - 1) / 2;
            if (!later(h[parent], rec))
                break;
            h[hole] = h[parent];
            hole = parent;
        }
        h[hole] = rec;
    }

    /**
     * Pending events, a min-heap on (when, seq) under Later; while a
     * callback runs, heap_[0] is its stale record (the hole).
     */
    std::vector<Record> heap_;
    /** heap_[0] is the running event's slot, not yet refilled. */
    bool hole_ = false;
    SimTime now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::uint64_t pastSchedules_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_SIM_EVENT_QUEUE_HH
