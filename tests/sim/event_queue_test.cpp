#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace pagesim
{
namespace
{

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(42, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackBudgetIsCheckedAtCompileTime)
{
    // A callback is a function pointer plus at most 16 B of plain
    // captures; anything else must not compile.
    std::uint64_t a = 0, b = 0, c = 0;
    [[maybe_unused]] auto three_refs = [&a, &b, &c] { ++a, ++b, ++c; };
    static_assert(sizeof(three_refs) == 24);
    static_assert(
        !std::is_constructible_v<EventQueue::Callback,
                                 decltype(three_refs)>);
    const std::string name = "owned";
    [[maybe_unused]] auto owns_string = [name] { (void)name.size(); };
    static_assert(
        !std::is_constructible_v<EventQueue::Callback,
                                 decltype(owns_string)>);
    auto two_refs = [&a, &b] { ++a, ++b; };
    static_assert(
        std::is_constructible_v<EventQueue::Callback, decltype(two_refs)>);
    EventQueue q;
    q.schedule(1, two_refs);
    q.run();
    EXPECT_EQ(a + b, 2u);
}

TEST(EventQueue, ClockAdvancesToEventTime)
{
    EventQueue q;
    SimTime seen = 0;
    q.schedule(1000, [&] { seen = q.now(); });
    q.run();
    EXPECT_EQ(seen, 1000u);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    SimTime seen = 0;
    q.schedule(100, [&] {
        q.scheduleAfter(50, [&] { seen = q.now(); });
    });
    q.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, PastScheduleClampsToNow)
{
    EventQueue q;
    SimTime seen = 0;
    q.schedule(100, [&] {
        q.schedule(10, [&] { seen = q.now(); }); // in the past
    });
    q.run();
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(q.pastSchedules(), 1u);
}

TEST(EventQueue, RunUntilStopsAtDeadline)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.schedule(30, [&] { ++count; });
    q.runUntil(20);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 20u);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle)
{
    EventQueue q;
    q.runUntil(500);
    EXPECT_EQ(q.now(), 500u);
}

TEST(EventQueue, RunWithLimitStopsEarly)
{
    EventQueue q;
    int count = 0;
    for (int i = 0; i < 10; ++i)
        q.schedule(i, [&] { ++count; });
    q.run(4);
    EXPECT_EQ(count, 4);
    EXPECT_EQ(q.pending(), 6u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            q.scheduleAfter(1, [&chain] { chain(); });
    };
    q.schedule(0, [&chain] { chain(); });
    q.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(q.now(), 4u);
    EXPECT_EQ(q.dispatched(), 5u);
}

TEST(EventQueue, RunWhileHonorsPredicate)
{
    EventQueue q;
    int count = 0;
    for (int i = 0; i < 10; ++i)
        q.schedule(i, [&] { ++count; });
    q.runWhile([&] { return count < 3; });
    EXPECT_EQ(count, 3);
}

// The queue must dispatch in exactly (when, seq) order: the order a
// stable sort of the schedule produces. These tests cross-check against
// that reference on randomized schedules spanning ns to days, with
// exact ties, events scheduled from callbacks, and runUntil() pauses.

namespace
{

/** xorshift64: cheap deterministic randomness for the cross-checks. */
struct MiniRng
{
    std::uint64_t x;
    std::uint64_t
    next()
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }
};

/** Reference ordering: stable sort of (when, insertion index). */
std::vector<std::pair<SimTime, int>>
referenceOrder(const std::vector<SimTime> &whens)
{
    std::vector<std::pair<SimTime, int>> order;
    order.reserve(whens.size());
    for (std::size_t i = 0; i < whens.size(); ++i)
        order.emplace_back(whens[i], static_cast<int>(i));
    std::stable_sort(order.begin(), order.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    return order;
}

} // namespace

TEST(EventQueue, RandomizedOrderMatchesReferenceAcrossTimescales)
{
    MiniRng rng{0x2545f4914f6cdd1dull};
    // Deltas spanning ns to days; coarse quantization forces plenty
    // of exact ties.
    const SimTime spans[] = {1,         1000,        65536,
                             1000000,   100000000,   30000000000ull,
                             2000000000000ull};
    for (int round = 0; round < 20; ++round) {
        EventQueue q;
        std::vector<SimTime> whens;
        std::vector<int> fired;
        for (int i = 0; i < 400; ++i) {
            const SimTime span = spans[rng.next() % std::size(spans)];
            const SimTime when = (rng.next() % span) & ~0x3ull;
            const int id = static_cast<int>(whens.size());
            whens.push_back(when);
            q.schedule(when, [&fired, id] { fired.push_back(id); });
        }
        q.run();
        const auto expect = referenceOrder(whens);
        ASSERT_EQ(fired.size(), expect.size());
        for (std::size_t i = 0; i < expect.size(); ++i)
            EXPECT_EQ(fired[i], expect[i].second) << "round " << round;
    }
}

TEST(EventQueue, RandomizedSelfSchedulingMatchesReference)
{
    // Interleaved schedule-from-callback churn: the heap's shape when
    // an event fires differs from when it was inserted, like the
    // simulator. Each callback captures one pointer to the shared
    // state plus its id, inside the 16 B callback budget.
    struct Churn
    {
        MiniRng rng{0x9e3779b97f4a7c15ull};
        EventQueue q;
        std::vector<SimTime> whens;
        std::vector<int> fired;

        void
        spawn(int fanout)
        {
            for (int i = 0; i < fanout; ++i) {
                const SimTime delta = (rng.next() % 3 == 0)
                                          ? rng.next() % 300000000
                                          : rng.next() % 50000;
                const SimTime when = q.now() + (delta & ~0x3ull);
                const int id = static_cast<int>(whens.size());
                whens.push_back(when);
                q.schedule(when, [this, id] {
                    fired.push_back(id);
                    if (whens.size() < 3000)
                        spawn(static_cast<int>(rng.next() % 3));
                });
            }
        }
    };
    Churn churn;
    churn.spawn(64);
    churn.q.run();
    const auto expect = referenceOrder(churn.whens);
    ASSERT_EQ(churn.fired.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        ASSERT_EQ(churn.fired[i], expect[i].second) << "position " << i;
}

TEST(EventQueue, InsertBehindParkedCursorKeepsOrder)
{
    // runUntil() stops short of a far-future event while the clock
    // moves to the deadline; a later insert between the two must
    // still dispatch first.
    EventQueue q;
    std::vector<int> fired;
    q.schedule(5000000000ull, [&] { fired.push_back(2); });
    q.runUntil(1000); // the far event stays pending
    EXPECT_EQ(q.now(), 1000u);
    q.schedule(2000, [&] { fired.push_back(0); });
    q.schedule(400000000ull, [&] { fired.push_back(1); });
    q.run();
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.pastSchedules(), 0u);
}

TEST(EventQueue, RunUntilSplitsBucketAndLaterInsertsJoinHeap)
{
    // runUntil() can stop between two close events; the survivor must
    // stay ordered with events inserted afterward.
    EventQueue q;
    std::vector<int> fired;
    // Two events within 1 us, one early one late; runUntil splits
    // them.
    q.schedule(10000000100ull, [&] { fired.push_back(1); });
    q.schedule(10000000900ull, [&] { fired.push_back(3); });
    q.runUntil(10000000500ull);
    EXPECT_EQ(fired, (std::vector<int>{1}));
    q.schedule(10000000600ull, [&] { fired.push_back(2); });
    q.runUntil(10000000600ull);
    q.schedule(10000000700ull, [&] {
        fired.push_back(4);
        q.scheduleAfter(50, [&] { fired.push_back(5); });
    });
    q.run();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 4, 5, 3}));
}

TEST(EventQueue, MassedTiesDispatchFifoAcrossBucketActivation)
{
    // FIFO among equal timestamps must hold for ties inserted before
    // dispatch starts and ties inserted later from a callback.
    EventQueue q;
    std::vector<int> fired;
    const SimTime t = 777777;
    for (int i = 0; i < 50; ++i)
        q.schedule(t, [&fired, i] { fired.push_back(i); });
    // The first dispatch inserts more ties, which join the 50 already
    // pending.
    q.schedule(t - 1, [&] {
        for (int i = 50; i < 80; ++i)
            q.schedule(t, [&fired, i] { fired.push_back(i); });
    });
    q.run();
    ASSERT_EQ(fired.size(), 80u);
    for (int i = 0; i < 80; ++i)
        EXPECT_EQ(fired[i], i);
}

// Fused dispatch: the running event's slot stays a hole until its
// callback's first schedule() fills it; a callback that schedules
// nothing lets the last record fill it. Either way the order must stay
// (when, seq), and pending()/empty() must never count the hole.

/**
 * A schedule where every event's callback schedules @p fanout more
 * at @p delta past now (first-generation events only), checked
 * against the stable-sort reference and against the expected
 * pending() count inside every callback.
 */
void
expectFusedOrder(int fanout, SimTime delta, const char *tag)
{
    struct State
    {
        EventQueue q;
        std::vector<SimTime> whens;
        std::vector<int> fired;
        std::size_t outstanding = 0;
        int fanout = 0;
        SimTime delta = 0;
        bool pendingOk = true;

        void
        add(SimTime when, bool spawns)
        {
            const int id = static_cast<int>(whens.size());
            whens.push_back(when);
            ++outstanding;
            if (spawns) {
                q.schedule(when, [this, id] { run(id, true); });
            } else {
                q.schedule(when, [this, id] { run(id, false); });
            }
        }

        void
        run(int id, bool spawns)
        {
            fired.push_back(id);
            --outstanding;
            pendingOk &= q.pending() == outstanding &&
                         q.empty() == (outstanding == 0);
            if (!spawns)
                return;
            for (int i = 0; i < fanout; ++i) {
                add(q.now() + delta, false);
                pendingOk &= q.pending() == outstanding;
            }
        }
    };
    State st;
    st.fanout = fanout;
    st.delta = delta;
    // Distinct times 10 apart, plus ties at 20 and 40: a +1 schedule
    // lands before every other pending event, +0 ties with the ties.
    for (const SimTime when : {10u, 20u, 20u, 30u, 40u, 40u, 40u, 50u})
        st.add(when, true);
    st.q.run();
    const auto expect = referenceOrder(st.whens);
    ASSERT_EQ(st.fired.size(), expect.size()) << tag;
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(st.fired[i], expect[i].second) << tag << " position " << i;
    EXPECT_TRUE(st.pendingOk) << tag << ": pending() counted the hole";
    EXPECT_TRUE(st.q.empty()) << tag;
}

TEST(EventQueue, FusedDispatchKeepsOrderForEachFanout)
{
    for (const int fanout : {0, 1, 3}) {
        const std::string f = "fanout " + std::to_string(fanout);
        expectFusedOrder(fanout, 0, (f + " at now").c_str());
        expectFusedOrder(fanout, 1, (f + " before all pending").c_str());
        expectFusedOrder(fanout, 1000000,
                         (f + " after all pending").c_str());
    }
}

TEST(EventQueue, PendingAndEmptyInsideCallbacksExcludeTheRunningEvent)
{
    // Callbacks capture one pointer to this, inside the 16 B budget.
    struct Probe
    {
        EventQueue q;
        std::vector<std::size_t> pending;
        std::vector<bool> empty;

        void
        look()
        {
            pending.push_back(q.pending());
            empty.push_back(q.empty());
        }
    };

    Probe lone;
    lone.q.schedule(5, [p = &lone] {
        p->look();
        p->q.scheduleAfter(1, [p] { p->look(); });
        p->look();
    });
    lone.q.run();
    EXPECT_EQ(lone.pending, (std::vector<std::size_t>{0, 1, 0}));
    EXPECT_EQ(lone.empty, (std::vector<bool>{true, false, true}));

    // With others pending: the running event is never counted, before
    // or after it schedules.
    Probe crowd;
    for (int i = 0; i < 4; ++i)
        crowd.q.schedule(100 + i, [p = &crowd] { p->look(); });
    crowd.q.schedule(50, [p = &crowd] {
        p->look();
        p->q.scheduleAfter(0, [p] { p->look(); });
        p->q.scheduleAfter(500, [p] { p->look(); });
        p->look();
    });
    crowd.q.run();
    EXPECT_EQ(crowd.pending,
              (std::vector<std::size_t>{4, 6, 5, 4, 3, 2, 1, 0}));
    EXPECT_EQ(crowd.empty.back(), true);
}

TEST(EventQueue, RandomizedFusedDispatchMatchesReference)
{
    // The self-scheduling cross-check with every fused-dispatch path:
    // callbacks schedule 0 to 3 events (0 leaves the hole to the last
    // record, the first of several fills it, the rest push), at now,
    // just after it, or far out; runUntil() pauses let schedules from
    // outside any callback interleave.
    struct Churn
    {
        MiniRng rng{0xd1b54a32d192ed03ull};
        EventQueue q;
        std::vector<SimTime> whens;
        std::vector<int> fired;
        std::size_t outstanding = 0;
        bool pendingOk = true;

        void
        add(SimTime delta)
        {
            const SimTime when = q.now() + delta;
            const int id = static_cast<int>(whens.size());
            whens.push_back(when);
            ++outstanding;
            q.schedule(when, [this, id] {
                fired.push_back(id);
                --outstanding;
                pendingOk &= q.pending() == outstanding;
                if (whens.size() < 6000)
                    spawn(static_cast<int>(rng.next() % 4));
            });
        }

        SimTime
        delta()
        {
            switch (rng.next() % 4) {
              case 0:
                return 0;
              case 1:
                return 1 + rng.next() % 8;
              case 2:
                return rng.next() % 50000;
              default:
                return rng.next() % 300000000;
            }
        }

        void
        spawn(int fanout)
        {
            for (int i = 0; i < fanout; ++i)
                add(delta());
        }
    };
    Churn churn;
    churn.spawn(48);
    SimTime deadline = 0;
    while (!churn.q.empty()) {
        deadline += 20000000;
        churn.q.runUntil(deadline);
        churn.pendingOk &= churn.q.pending() == churn.outstanding;
        if (churn.whens.size() < 6000)
            churn.spawn(static_cast<int>(churn.rng.next() % 3));
    }
    const auto expect = referenceOrder(churn.whens);
    ASSERT_EQ(churn.fired.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        ASSERT_EQ(churn.fired[i], expect[i].second) << "position " << i;
    EXPECT_TRUE(churn.pendingOk);
    EXPECT_GT(churn.whens.size(), 5000u);
}

#ifndef NDEBUG
TEST(EventQueueDeathTest, RunOneReenteredFromCallbackAsserts)
{
    // The running event's slot is a hole until the callback schedules;
    // a nested dispatch would pop the hole.
    EXPECT_DEATH(
        {
            EventQueue q;
            q.schedule(1, [] {});
            q.schedule(0, [&q] { q.runOne(); });
            q.run();
        },
        "re-entered");
}
#endif

} // namespace
} // namespace pagesim
