#include "kv/ycsb_workload.hh"

#include <algorithm>
#include <cassert>

#include "kernel/memory_manager.hh"
#include "kv/ycsb_draws.hh"

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
 * the measured request loop, replayed from the thread's shared draw
 * table (kv/ycsb_draws.hh).
 */
class YcsbStream : public OpStream
{
  public:
    YcsbStream(YcsbWorkload &wl, unsigned tid)
        : wl_(wl),
          draws_(sharedYcsbDraws(YcsbDrawKey::of(wl.config_, tid)))
    {
        const std::uint64_t items = wl_.store_.items();
        const unsigned T = wl_.config_.threads;
        loadLo_ = items * tid / T;
        loadHi_ = items * (tid + 1) / T;
        requests_ = draws_->requests();
    }

    void
    visitState(StateIO &io) override
    {
        // loadHi_/requests_ are pure functions of the config, replayed
        // at construction; only the cursors and the current expansion
        // (the block) move. The generator words a live draw would
        // leave are a function of done_: derived from the draw table
        // and checked, never stored.
        io.enumU8(phase_, Phase::Requests);
        io.require(io.u64(loadLo_) <= loadHi_);
        const std::uint64_t done = io.u64(done_);
        io.require(done <= requests_);
        draws_->generatorAt(std::min(done, requests_)).expectState(io);
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
            const std::uint64_t i = done_++;
            const std::uint64_t item = draws_->item(i);
            const bool is_read = draws_->isRead(wl_.config_.mix, i);
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
    std::shared_ptr<const YcsbDraws> draws_;
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
