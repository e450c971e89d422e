#include <gtest/gtest.h>

#include <memory>

#include "kernel/memory_manager.hh"
#include "policy/policy_factory.hh"
#include "sim/simulation.hh"
#include "swap/ssd_device.hh"
#include "swap/swap_manager.hh"
#include "workload/access_pattern.hh"
#include "workload/work_thread.hh"

namespace pagesim
{
namespace
{

/** Minimal workload wrapping explicit per-thread segment lists. */
class ScriptWorkload : public Workload
{
  public:
    ScriptWorkload(std::vector<std::vector<Segment>> programs,
                   unsigned barrier_parties)
        : programs_(std::move(programs)),
          barrier_(std::make_unique<SimBarrier>(barrier_parties))
    {
    }

    const std::string &name() const override { return name_; }
    std::uint64_t footprintPages() const override { return 256; }
    unsigned
    numThreads() const override
    {
        return static_cast<unsigned>(programs_.size());
    }
    void build(WorkloadContext &) override {}

    std::unique_ptr<OpStream>
    stream(unsigned tid) override
    {
        return std::make_unique<PatternStream>(programs_[tid]);
    }

    SimBarrier *barrier(std::uint32_t) override { return barrier_.get(); }

    void
    recordRequest(std::uint32_t klass, SimDuration latency) override
    {
        requests.emplace_back(klass, latency);
    }

    void
    phaseReached(unsigned tid, std::uint32_t id, SimTime now) override
    {
        phases.emplace_back(tid, id);
        lastPhaseTime = now;
    }

    std::vector<std::pair<std::uint32_t, SimDuration>> requests;
    std::vector<std::pair<unsigned, std::uint32_t>> phases;
    SimTime lastPhaseTime = 0;

  private:
    std::vector<std::vector<Segment>> programs_;
    std::string name_ = "script";
    std::unique_ptr<SimBarrier> barrier_;
};

struct ThreadHarness
{
    Simulation sim{4, 11};
    FrameTable frames;
    AddressSpace space{0};
    SsdSwapDevice device;
    SwapManager swap;
    MmConfig config;
    std::unique_ptr<ReplacementPolicy> policy;
    std::unique_ptr<MemoryManager> mm;

    explicit
    ThreadHarness(std::uint32_t nframes = 512)
        : frames(nframes),
          device(sim.events(), sim.forkRng("ssd")),
          swap(device, 4096)
    {
        space.map("w", 1024);
        config.totalFrames = nframes;
        config.deriveWatermarks();
        policy = makePolicy(PolicyKind::MgLru, frames, {&space},
                            config.costs, sim.forkRng("p"), {},
                            &sim.events());
        mm = std::make_unique<MemoryManager>(
            sim, frames, swap,
            std::vector<MemcgSpec>{{MemcgConfig{}, policy.get()}},
            config);
    }

    Vpn base() const { return space.vmas().front().start; }
};

TEST(WorkThread, ExecutesSeqTouchesAndFinishes)
{
    ThreadHarness h;
    ScriptWorkload wl({{SeqTouch{h.base(), 10, true, false, 100}}}, 1);
    WorkThread t(h.sim, *h.mm, wl, h.space, 0);
    t.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    EXPECT_TRUE(t.finished());
    EXPECT_EQ(t.threadStats().touches, 10u);
    // All 10 pages resident.
    for (Vpn v = h.base(); v < h.base() + 10; ++v)
        EXPECT_TRUE(h.space.table().at(v).present());
    EXPECT_GT(t.cpuWork(), 0u);
}

TEST(WorkThread, ChunkingYieldsPeriodically)
{
    ThreadHarness h;
    // 100 touches x 10us compute = 1ms >> 50us chunk: many yields.
    ScriptWorkload wl(
        {{SeqTouch{h.base(), 100, false, false, usecs(10)}}}, 1);
    WorkThread t(h.sim, *h.mm, wl, h.space, 0);
    t.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    // Total charged work ~ 100*10us + fault costs.
    EXPECT_GE(t.cpuWork(), usecs(1000));
    // The run took at least that long in wall time too.
    EXPECT_GE(h.sim.now(), usecs(1000));
}

TEST(WorkThread, BarrierSynchronizesThreads)
{
    ThreadHarness h;
    std::vector<std::vector<Segment>> programs(2);
    // Thread 0: quick, then barrier, then phase 9.
    programs[0] = {SeqTouch{h.base(), 1, false, false, 100},
                   BarrierSeg{0}, PhaseSeg{9}};
    // Thread 1: slow.
    programs[1] = {SeqTouch{h.base() + 100, 1, false, false,
                            usecs(40)},
                   ComputeSeg{usecs(400)}, BarrierSeg{0}};
    ScriptWorkload wl(std::move(programs), 2);
    WorkThread t0(h.sim, *h.mm, wl, h.space, 0);
    WorkThread t1(h.sim, *h.mm, wl, h.space, 1);
    t0.start();
    t1.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    ASSERT_EQ(wl.phases.size(), 1u);
    // Phase 9 fires only after the slow thread arrived (~440us).
    EXPECT_GE(wl.lastPhaseTime, usecs(400));
    EXPECT_EQ(t0.threadStats().barriersPassed, 1u);
}

TEST(WorkThread, RequestLatencyCoversFaultTime)
{
    ThreadHarness h;
    // Swap out the target page first so the request major-faults.
    const auto pte = h.space.table().at(h.base() + 5);
    // lint:pte-direct-ok(seeds a swapped-out PTE from the never-mapped
    // state; no tracked bitmap is touched and the PageTable mutator
    // asserts present())
    pte.unmapToSwap(h.swap.allocate(), 0);

    // A measured request around one touch of the swapped page, with
    // explicit request markers via a custom stream.
    class ReqStream : public OpStream
    {
      public:
        explicit ReqStream(Vpn vpn) : vpn_(vpn) {}

      protected:
        std::size_t
        refill(Op *out) override
        {
            if (done_)
                return 0;
            done_ = true;
            out[0] = Op::makeRequestStart(0);
            out[1] = Op::makeTouch(vpn_, false);
            out[2] = Op::makeRequestEnd(0);
            return 3;
        }

      private:
        Vpn vpn_;
        bool done_ = false;
    };
    class ReqWorkload : public ScriptWorkload
    {
      public:
        explicit ReqWorkload(Vpn vpn)
            : ScriptWorkload({{}}, 1), vpn_(vpn)
        {
        }

        std::unique_ptr<OpStream>
        stream(unsigned) override
        {
            return std::make_unique<ReqStream>(vpn_);
        }

      private:
        Vpn vpn_;
    };

    ReqWorkload wl(h.base() + 5);
    WorkThread t(h.sim, *h.mm, wl, h.space, 0);
    t.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    ASSERT_EQ(wl.requests.size(), 1u);
    // The request latency includes the swap-in service time.
    EXPECT_GE(wl.requests[0].second, msecs(1));
    EXPECT_EQ(t.threadStats().blockedFaults, 1u);
}

TEST(WorkThread, FdTouchReachesPolicy)
{
    ThreadHarness h;
    h.space.map("file", 16, true);
    const Vpn fv = h.space.vmas()[1].start;
    ScriptWorkload wl({{SeqTouch{fv, 1, false, /*fd=*/true, 0},
                        SeqTouch{fv, 1, false, /*fd=*/true, 0},
                        SeqTouch{fv, 1, false, /*fd=*/true, 0}}},
                      1);
    WorkThread t(h.sim, *h.mm, wl, h.space, 0);
    t.start();
    EXPECT_TRUE(h.sim.runToCompletion());
    const Pfn pfn = h.space.table().at(fv).pfn();
    EXPECT_GT(h.frames.info(pfn).refs, 0u)
        << "fd accesses feed the tier machinery";
    EXPECT_FALSE(h.space.table().at(fv).accessed())
        << "fd accesses do not set the PTE accessed bit after the "
           "initial fault-in path";
}

} // namespace
} // namespace pagesim
