#include "metrics/sampler.hh"

#include <utility>

namespace pagesim
{

void
PeriodicSampler::probe(std::string name, Probe fn)
{
    series_.names.push_back(prefix_.empty() ? std::move(name)
                                            : prefix_ + name);
    series_.columns.emplace_back();
    probes_.push_back(std::move(fn));
}

void
PeriodicSampler::start(EventQueue &queue, SimDuration every,
                       std::size_t max_samples, KeepGoing keep_going)
{
    queue_ = &queue;
    every_ = every;
    maxSamples_ = max_samples;
    keepGoing_ = std::move(keep_going);
    // Reserve enough rows for a short trial up front (see
    // kReserveRows on why not the full budget).
    const std::size_t rows =
        maxSamples_ < kReserveRows ? maxSamples_ : kReserveRows;
    series_.at.reserve(rows);
    for (auto &col : series_.columns)
        col.reserve(rows);
    running_ = true;
    tick();
}

void
PeriodicSampler::sampleOnce(SimTime now)
{
    series_.at.push_back(now);
    for (std::size_t i = 0; i < probes_.size(); ++i)
        series_.columns[i].push_back(probes_[i]());
}

void
PeriodicSampler::tick()
{
    if (!running_ || series_.rows() >= maxSamples_ ||
        (keepGoing_ && !keepGoing_())) {
        running_ = false;
        return;
    }
    sampleOnce(queue_->now());
    // One pointer: well within the event callback's 16 B capture
    // budget.
    queue_->scheduleAfter(every_, [this] { tick(); });
}

} // namespace pagesim
