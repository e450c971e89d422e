#include "kv/ycsb_workload.hh"

#include <cassert>

#include "kernel/memory_manager.hh"

namespace pagesim
{

double
ycsbReadFraction(YcsbMix mix)
{
    switch (mix) {
      case YcsbMix::A:
        return 0.50;
      case YcsbMix::B:
        return 0.95;
      case YcsbMix::C:
      default:
        return 1.0;
    }
}

const std::string &
ycsbMixName(YcsbMix mix)
{
    static const std::string names[] = {"YCSB-A", "YCSB-B", "YCSB-C"};
    return names[static_cast<int>(mix)];
}

/**
 * Per-thread YCSB op stream: load shard, barrier, phase marker, then
 * the measured request loop.
 */
class YcsbStream : public OpStream
{
  public:
    YcsbStream(YcsbWorkload &wl, unsigned tid)
        : wl_(wl), tid_(tid),
          rng_(splitmix64(wl.config_.seed ^ (1000 + tid))),
          zipf_(wl.store_.items(), wl.config_.zipfTheta, true)
    {
        const std::uint64_t items = wl_.store_.items();
        const unsigned T = wl_.config_.threads;
        loadLo_ = items * tid_ / T;
        loadHi_ = items * (tid_ + 1) / T;
        requests_ = static_cast<std::uint64_t>(
            static_cast<double>(items) * wl_.config_.requestsPerItem /
            T);
    }

    bool
    next(Op &op) override
    {
        // A request/load expands to several ops; drain the queue first.
        if (queueHead_ < queue_.size()) {
            op = queue_[queueHead_++];
            return true;
        }
        return refill(op);
    }

    void
    visitState(StateIO &io) override
    {
        // loadHi_/requests_ are pure functions of the config, replayed
        // at construction; only the cursors and the draw state move.
        io.enumU8(phase_, Phase::Requests);
        io.u64(loadLo_);
        io.u64(done_);
        rng_.visitState(io);
        io.objects(queue_, 64); // a request expands to a handful of ops
        io.u64(queueHead_);
    }

  private:
    enum class Phase
    {
        Load,
        BarrierThenMark,
        Requests,
    };

    /**
     * Expand the next load/request into the queue and return its first
     * op. Kept out of line so next()'s drain path stays a few loads.
     */
    [[gnu::noinline]] bool
    refill(Op &op)
    {
        queue_.clear();
        queueHead_ = 0;

        switch (phase_) {
          case Phase::Load: {
            if (loadLo_ >= loadHi_) {
                phase_ = Phase::BarrierThenMark;
                return refill(op);
            }
            const std::uint64_t item = loadLo_++;
            pushItemOps(item, true, false);
            queue_.push_back(
                Op::makeCompute(wl_.config_.computePerRequest));
            op = queue_[queueHead_++];
            return true;
          }
          case Phase::BarrierThenMark:
            queue_.push_back(Op::makeBarrier(0));
            queue_.push_back(Op::makePhase(1));
            phase_ = Phase::Requests;
            op = queue_[queueHead_++];
            return true;
          case Phase::Requests: {
            if (done_ >= requests_)
                return false;
            ++done_;
            const std::uint64_t item = zipf_.next(rng_);
            const bool is_read =
                rng_.nextDouble() < ycsbReadFraction(wl_.config_.mix);
            const std::uint32_t klass =
                is_read ? kYcsbRead : kYcsbWrite;
            queue_.push_back(Op::makeRequestStart(klass));
            pushItemOps(item, !is_read, true);
            queue_.push_back(
                Op::makeCompute(wl_.config_.computePerRequest));
            queue_.push_back(Op::makeRequestEnd(klass));
            op = queue_[queueHead_++];
            return true;
          }
        }
        return false;
    }

    void
    pushItemOps(std::uint64_t item, bool write, bool read_bucket_first)
    {
        // Lookup: bucket page (read; write on insert), then the item's
        // slab page(s).
        queue_.push_back(Op::makeTouch(wl_.store_.bucketPageOf(item),
                                       !read_bucket_first));
        Vpn pages[2];
        const unsigned n = wl_.store_.itemPagesOf(item, pages);
        for (unsigned i = 0; i < n; ++i)
            queue_.push_back(Op::makeTouch(pages[i], write));
    }

    YcsbWorkload &wl_;
    // lint:state-cov-ok(thread identity fixed at construction)
    unsigned tid_;
    Rng rng_;
    // lint:state-cov-ok(precomputed zeta tables, a pure function of the config item count)
    ZipfianGenerator zipf_;
    Phase phase_ = Phase::Load;
    std::uint64_t loadLo_ = 0;
    // lint:state-cov-ok(load partition bound, a pure function of config replayed at construction)
    std::uint64_t loadHi_ = 0;
    // lint:state-cov-ok(per-thread request target, a pure function of config replayed at construction)
    std::uint64_t requests_ = 0;
    std::uint64_t done_ = 0;
    std::vector<Op> queue_;
    std::size_t queueHead_ = 0;
};

YcsbWorkload::YcsbWorkload(const YcsbConfig &config)
    : config_(config), name_(ycsbMixName(config.mix)),
      store_(config.kv),
      barrier_(std::make_unique<SimBarrier>(config.threads))
{
}

std::uint64_t
YcsbWorkload::footprintPages() const
{
    return store_.footprintPages();
}

unsigned
YcsbWorkload::numThreads() const
{
    return config_.threads;
}

void
YcsbWorkload::build(WorkloadContext &ctx)
{
    mm_ = ctx.mm;
    store_.mapInto(*ctx.space);
}

SimBarrier *
YcsbWorkload::barrier(std::uint32_t)
{
    return barrier_.get();
}

std::unique_ptr<OpStream>
YcsbWorkload::stream(unsigned tid)
{
    return std::make_unique<YcsbStream>(*this, tid);
}

void
YcsbWorkload::recordRequest(std::uint32_t klass, SimDuration latency)
{
    if (!measuring_)
        return;
    if (klass == kYcsbRead)
        readHist_.record(latency);
    else
        writeHist_.record(latency);
}

void
YcsbWorkload::phaseReached(unsigned, std::uint32_t id, SimTime now)
{
    if (id == 1 && !measuring_) {
        measuring_ = true;
        measureStart_ = now;
        if (mm_ != nullptr)
            faultsAtMeasureStart_ = mm_->stats().majorFaults;
    }
}

} // namespace pagesim
