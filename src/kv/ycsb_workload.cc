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

    void
    visitState(StateIO &io) override
    {
        // loadHi_/requests_ are pure functions of the config, replayed
        // at construction; only the cursors, the draw state and the
        // current expansion (the block) move.
        io.enumU8(phase_, Phase::Requests);
        io.require(io.u64(loadLo_) <= loadHi_);
        io.require(io.u64(done_) <= requests_);
        rng_.visitState(io);
        OpStream::visitState(io);
    }

  protected:
    /** Expand the next load or request into @p out: one per block. */
    std::size_t
    refill(Op *out) override
    {
        switch (phase_) {
          case Phase::Load:
            if (loadLo_ < loadHi_) {
                std::size_t n = writeItemOps(out, loadLo_++, true, false);
                out[n++] = Op::makeCompute(wl_.config_.computePerRequest);
                return n;
            }
            phase_ = Phase::BarrierThenMark;
            [[fallthrough]];
          case Phase::BarrierThenMark:
            out[0] = Op::makeBarrier(0);
            out[1] = Op::makePhase(1);
            phase_ = Phase::Requests;
            return 2;
          case Phase::Requests: {
            if (done_ >= requests_)
                return 0;
            ++done_;
            const std::uint64_t item = zipf_.next(rng_);
            const bool is_read =
                rng_.nextDouble() < ycsbReadFraction(wl_.config_.mix);
            const std::uint32_t klass =
                is_read ? kYcsbRead : kYcsbWrite;
            out[0] = Op::makeRequestStart(klass);
            std::size_t n = 1 + writeItemOps(out + 1, item, !is_read, true);
            out[n++] = Op::makeCompute(wl_.config_.computePerRequest);
            out[n++] = Op::makeRequestEnd(klass);
            return n;
          }
        }
        return 0;
    }

  private:
    enum class Phase
    {
        Load,
        BarrierThenMark,
        Requests,
    };

    /** Write an item lookup's touches to @p out; return how many. */
    std::size_t
    writeItemOps(Op *out, std::uint64_t item, bool write,
                 bool read_bucket_first)
    {
        // Lookup: bucket page (read; write on insert), then the item's
        // slab page(s).
        out[0] = Op::makeTouch(wl_.store_.bucketPageOf(item),
                               !read_bucket_first);
        Vpn pages[2];
        const unsigned n = wl_.store_.itemPagesOf(item, pages);
        for (unsigned i = 0; i < n; ++i)
            out[1 + i] = Op::makeTouch(pages[i], write);
        return 1 + n;
    }

    YcsbWorkload &wl_;
    // lint:state-cov-ok(thread identity fixed at construction)
    unsigned tid_;
    Rng rng_;
    // lint:state-cov-ok(precomputed zeta tables, a pure function of the config item count)
    ZipfianGenerator zipf_;
    Phase phase_ = Phase::Load;
    std::uint64_t loadLo_ = 0;
    std::uint64_t loadHi_ = 0;
    std::uint64_t requests_ = 0;
    std::uint64_t done_ = 0;
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
