#include <gtest/gtest.h>

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
    std::vector<SimTime> completions;
    SimTime prev = 0;
    std::vector<SimDuration> services;
    for (int i = 0; i < 20; ++i)
        ssd.submit(i, false, [&] {
            services.push_back(events.now() - prev);
            prev = events.now();
        });
    events.run();
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

TEST(SsdDevice, IsAsynchronous)
{
    EventQueue events;
    SsdSwapDevice ssd(events, Rng(1));
    EXPECT_FALSE(ssd.synchronous());
    EXPECT_EQ(ssd.cpuCost(0, true), 0u);
}

} // namespace
} // namespace pagesim
