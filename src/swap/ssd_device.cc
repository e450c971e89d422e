#include "swap/ssd_device.hh"

#include <algorithm>
#include <cassert>
#include <utility>

namespace pagesim
{

SsdSwapDevice::SsdSwapDevice(EventQueue &events, Rng rng,
                             const SsdConfig &config)
    : events_(events), rng_(std::move(rng)), config_(config)
{
}

double
SsdSwapDevice::gcMultiplier(SimTime now)
{
    if (config_.gcFactor <= 1.0)
        return 1.0;
    if (!gcScheduled_) {
        gcScheduled_ = true;
        nextGcAt_ = now + static_cast<SimDuration>(rng_.exponential(
                              static_cast<double>(
                                  config_.gcIntervalMean)));
    }
    if (now >= nextGcAt_) {
        // Enter a GC episode.
        ++gcEpisodes_;
        gcUntil_ = now + static_cast<SimDuration>(rng_.exponential(
                             static_cast<double>(
                                 config_.gcDurationMean)));
        nextGcAt_ = gcUntil_ +
                    static_cast<SimDuration>(rng_.exponential(
                        static_cast<double>(config_.gcIntervalMean)));
    }
    return now < gcUntil_ ? config_.gcFactor : 1.0;
}

SimDuration
SsdSwapDevice::serviceTime(bool is_write)
{
    const SimDuration base =
        is_write ? config_.writeLatency : config_.readLatency;
    double service = static_cast<double>(base);
    if (config_.jitterSigma > 0.0)
        service = rng_.logNormalMean(service, config_.jitterSigma);
    service *= gcMultiplier(events_.now());
    return static_cast<SimDuration>(std::max(service, 1.0));
}

void
SsdSwapDevice::submit(SwapSlot, bool is_write, Callback cb)
{
    Request req{is_write, events_.now(), 0, std::move(cb)};
    if (inFlight_ < config_.parallelism) {
        startOne(std::move(req));
    } else {
        queue_.push_back(std::move(req));
        stats_.peakQueueDepth =
            std::max<std::uint64_t>(stats_.peakQueueDepth,
                                    queue_.size());
    }
}

void
SsdSwapDevice::startOne(Request req)
{
    ++inFlight_;
    req.started = events_.now();
    const SimDuration service = serviceTime(req.isWrite);
    events_.scheduleAfter(service, [this, r = std::move(req)]() mutable {
        complete(std::move(r));
    });
}

void
SsdSwapDevice::complete(Request req)
{
    --inFlight_;
    const SimDuration latency = events_.now() - req.submitted;
    if (req.isWrite) {
        ++stats_.writes;
        stats_.totalWriteLatency += latency;
    } else {
        ++stats_.reads;
        stats_.totalReadLatency += latency;
    }
    // Start the next queued request before running the completion so
    // the device stays saturated.
    if (!queue_.empty()) {
        Request next = std::move(queue_.front());
        queue_.pop_front();
        startOne(std::move(next));
    }
    // Expose the queue-wait/service split for the completion callback
    // (latency-attribution spans read it there).
    lastQueueWait_ = req.started - req.submitted;
    lastService_ = events_.now() - req.started;
    req.cb();
}

void
SsdSwapDevice::visitState(StateIO &io)
{
    assert(quiescent() && "SSD checkpoint requires an idle device");
    SwapDevice::visitState(io);
    // GC state is lazy (evaluated at submit time, no scheduled
    // events), so plain values plus the device RNG capture it fully.
    rng_.visitState(io);
    io.u64(gcUntil_);
    io.u64(nextGcAt_);
    io.boolean(gcScheduled_);
    io.u64(gcEpisodes_);
}

} // namespace pagesim
