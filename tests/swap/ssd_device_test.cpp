#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "swap/ssd_device.hh"

namespace pagesim
{
namespace
{

SsdConfig
fixedLatency(SimDuration lat, unsigned parallelism)
{
    SsdConfig cfg;
    cfg.readLatency = lat;
    cfg.writeLatency = lat;
    cfg.parallelism = parallelism;
    cfg.jitterSigma = 0.0;
    cfg.gcFactor = 1.0; // deterministic service for unit tests
    return cfg;
}

TEST(SsdDevice, SingleReadCompletesAfterServiceTime)
{
    EventQueue events;
    SsdSwapDevice ssd(events, Rng(1), fixedLatency(msecs(7), 8));
    bool done = false;
    ssd.submit(0, false, [&] { done = true; });
    EXPECT_FALSE(done);
    events.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(events.now(), msecs(7));
    EXPECT_EQ(ssd.stats().reads, 1u);
}

TEST(SsdDevice, ParallelOpsOverlap)
{
    EventQueue events;
    SsdSwapDevice ssd(events, Rng(1), fixedLatency(msecs(10), 4));
    int done = 0;
    for (int i = 0; i < 4; ++i)
        ssd.submit(i, false, [&] { ++done; });
    events.run();
    EXPECT_EQ(done, 4);
    EXPECT_EQ(events.now(), msecs(10)) << "4 ops fit in the NCQ window";
}

TEST(SsdDevice, QueueingDelaysExcessOps)
{
    EventQueue events;
    SsdSwapDevice ssd(events, Rng(1), fixedLatency(msecs(10), 2));
    std::vector<SimTime> completions;
    for (int i = 0; i < 4; ++i)
        ssd.submit(i, false, [&] { completions.push_back(events.now()); });
    EXPECT_EQ(ssd.inFlight(), 2u);
    EXPECT_EQ(ssd.queued(), 2u);
    events.run();
    ASSERT_EQ(completions.size(), 4u);
    EXPECT_EQ(completions[1], msecs(10));
    EXPECT_EQ(completions[3], msecs(20)) << "second wave waits";
    EXPECT_GE(ssd.stats().peakQueueDepth, 2u);
}

TEST(SsdDevice, LatencyStatsIncludeQueueing)
{
    EventQueue events;
    SsdSwapDevice ssd(events, Rng(1), fixedLatency(msecs(10), 1));
    ssd.submit(0, true, [] {});
    ssd.submit(1, true, [] {});
    events.run();
    EXPECT_EQ(ssd.stats().writes, 2u);
    // First write: 10ms. Second: 10ms queue + 10ms service = 20ms.
    EXPECT_DOUBLE_EQ(ssd.stats().meanWriteLatency(),
                     static_cast<double>(msecs(15)));
}

TEST(SsdDevice, QueuedOpsReportQueueWaitAndService)
{
    // One op at a time, three submitted at t=0: the k-th waits k
    // service times in the FIFO, then spends one in service. The
    // split is read where instrumentation reads it, inside the
    // completion callback.
    EventQueue events;
    SsdSwapDevice ssd(events, Rng(1), fixedLatency(msecs(10), 1));
    std::vector<std::pair<SimDuration, SimDuration>> seen;
    for (int i = 0; i < 3; ++i) {
        ssd.submit(i, i % 2 == 0, [&] {
            seen.emplace_back(ssd.lastOpQueueWait(),
                              ssd.lastOpService());
        });
    }
    events.run();
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0], std::make_pair(msecs(0), msecs(10)));
    EXPECT_EQ(seen[1], std::make_pair(msecs(10), msecs(10)));
    EXPECT_EQ(seen[2], std::make_pair(msecs(20), msecs(10)));
}

TEST(SsdDevice, JitterVariesServiceTimes)
{
    EventQueue events;
    SsdConfig cfg = fixedLatency(msecs(10), 1);
    cfg.jitterSigma = 0.2;
    cfg.gcFactor = 1.0;
    SsdSwapDevice ssd(events, Rng(7), cfg);
    // Completions capture one pointer to this state (the callback
    // budget is 16 B).
    struct Seen
    {
        EventQueue &events;
        SimTime lastDone = 0;
        std::vector<SimDuration> services;
    } seen{events, 0, {}};
    for (int i = 0; i < 20; ++i)
        ssd.submit(i, false, [s = &seen] {
            s->services.push_back(s->events.now() - s->lastDone);
            s->lastDone = s->events.now();
        });
    events.run();
    const std::vector<SimDuration> &services = seen.services;
    bool varied = false;
    for (std::size_t i = 1; i < services.size(); ++i)
        varied |= services[i] != services[0];
    EXPECT_TRUE(varied);
    // Mean stays in the right ballpark.
    double sum = 0;
    for (auto s : services)
        sum += static_cast<double>(s);
    EXPECT_NEAR(sum / services.size(), msecs(10), msecs(2));
}

TEST(SsdDevice, OutOfOrderCompletionsReuseServiceSlots)
{
    // Jittered service times finish requests out of submit order, so
    // slots free up in an order unrelated to the one they were filled
    // in. Each completion must still see its own request's split.
    EventQueue events;
    SsdConfig cfg = fixedLatency(msecs(10), 4);
    cfg.jitterSigma = 0.3;
    SsdSwapDevice ssd(events, Rng(11), cfg);
    constexpr int kOps = 64;
    struct Probe
    {
        EventQueue &events;
        SsdSwapDevice &ssd;
        std::vector<SimTime> submitted;
        std::vector<int> runs;
        std::vector<int> order;
        unsigned maxInFlight = 0;
    } probe{events, ssd, {}, std::vector<int>(kOps, 0), {}};
    struct Op
    {
        Probe *p;
        int id;
        void
        operator()() const
        {
            ++p->runs[id];
            p->order.push_back(id);
            EXPECT_EQ(p->ssd.lastOpQueueWait() + p->ssd.lastOpService(),
                      p->events.now() - p->submitted[id])
                << "request " << id;
            EXPECT_LE(p->ssd.inFlight(), 4u);
        }
    };
    for (int i = 0; i < kOps; ++i) {
        // Bursts of 8 every 15 ms outpace the 4-slot window, so later
        // requests queue behind ones that are mid-service.
        if (i % 8 == 0)
            events.runUntil(events.now() + msecs(15));
        probe.submitted.push_back(events.now());
        ssd.submit(i, i % 3 == 0, Op{&probe, i});
        probe.maxInFlight = std::max(probe.maxInFlight, ssd.inFlight());
    }
    events.run();
    EXPECT_EQ(probe.runs, std::vector<int>(kOps, 1));
    EXPECT_EQ(probe.maxInFlight, 4u);
    EXPECT_GT(ssd.stats().peakQueueDepth, 0u);
    EXPECT_FALSE(std::is_sorted(probe.order.begin(), probe.order.end()))
        << "jitter should finish some requests out of submit order";
    EXPECT_TRUE(ssd.quiescent());
    EXPECT_EQ(ssd.inFlight(), 0u);
    EXPECT_EQ(ssd.queued(), 0u);
    EXPECT_EQ(ssd.stats().reads + ssd.stats().writes,
              static_cast<std::uint64_t>(kOps));
}

TEST(SsdDevice, IsAsynchronous)
{
    EventQueue events;
    SsdSwapDevice ssd(events, Rng(1));
    EXPECT_FALSE(ssd.synchronous());
    EXPECT_EQ(ssd.cpuCost(0, true), 0u);
}

TEST(SsdDevice, JitterDrawsMatchLogNormalMeanPath)
{
    // The per-direction log-space location is computed once at
    // construction; each service time must still be the very double
    // Rng::logNormalMean yields for that direction's mean.
    EventQueue events;
    SsdConfig cfg = fixedLatency(msecs(1), 1);
    cfg.readLatency = msecs(1) + usecs(500);
    cfg.writeLatency = msecs(2) + usecs(300);
    cfg.jitterSigma = 0.05;
    SsdSwapDevice ssd(events, Rng(99), cfg);
    Rng ref(99);
    Rng pick(5);
    for (int i = 0; i < 10000; ++i) {
        const bool is_write = pick.bernoulli(0.5);
        ssd.submit(0, is_write, [] {});
        events.run();
        const double mean = static_cast<double>(
            is_write ? cfg.writeLatency : cfg.readLatency);
        const auto want = static_cast<SimDuration>(
            std::max(ref.logNormalMean(mean, cfg.jitterSigma), 1.0));
        ASSERT_EQ(ssd.lastOpService(), want) << "op " << i;
    }
}

} // namespace
} // namespace pagesim
