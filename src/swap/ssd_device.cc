#include "swap/ssd_device.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace pagesim
{

SsdSwapDevice::SsdSwapDevice(EventQueue &events, Rng rng,
                             const SsdConfig &config)
    : events_(events), rng_(std::move(rng)), config_(config),
      jitterMu_{Rng::logNormalMu(static_cast<double>(config.readLatency),
                                 config.jitterSigma),
                Rng::logNormalMu(static_cast<double>(config.writeLatency),
                                 config.jitterSigma)},
      slots_(config.parallelism)
{
    // Hand out slot 0 first.
    for (unsigned slot = config.parallelism; slot-- > 0;)
        idle_.push_back(slot);
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
    double service = static_cast<double>(
        is_write ? config_.writeLatency : config_.readLatency);
    if (config_.jitterSigma > 0.0)
        service = std::exp(rng_.normal(jitterMu_[is_write],
                                       config_.jitterSigma));
    service *= gcMultiplier(events_.now());
    return static_cast<SimDuration>(std::max(service, 1.0));
}

void
SsdSwapDevice::submit(SwapSlot, bool is_write, Callback cb)
{
    const Request req{cb, events_.now(), is_write};
    if (!idle_.empty()) {
        startOne(req);
    } else {
        queue_.push_back(req);
        stats_.peakQueueDepth =
            std::max<std::uint64_t>(stats_.peakQueueDepth,
                                    queue_.size());
    }
}

void
SsdSwapDevice::startOne(const Request &req)
{
    const unsigned slot = idle_.back();
    idle_.pop_back();
    slots_[slot] = InService{req, events_.now()};
    events_.scheduleAfter(serviceTime(req.isWrite),
                          [this, slot] { complete(slot); });
}

void
SsdSwapDevice::complete(unsigned slot)
{
    InService done = slots_[slot];
    idle_.push_back(slot);
    const SimDuration latency = events_.now() - done.req.submitted;
    if (done.req.isWrite) {
        ++stats_.writes;
        stats_.totalWriteLatency += latency;
    } else {
        ++stats_.reads;
        stats_.totalReadLatency += latency;
    }
    // Start the next queued request before running the completion so
    // the device stays saturated.
    if (!queue_.empty()) {
        startOne(queue_.front());
        queue_.pop_front();
    }
    // Expose the queue-wait/service split for the completion callback
    // (latency-attribution spans read it there).
    lastQueueWait_ = done.started - done.req.submitted;
    lastService_ = events_.now() - done.started;
    done.req.cb();
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
