/**
 * @file
 * Custom workload walkthrough: how to characterize YOUR application's
 * interaction with page replacement using the pagesim public API.
 *
 * Implements a small "log-structured ingest" workload from scratch —
 * an append-only log plus a hot index, a pattern none of the paper's
 * benchmarks cover — then assembles a full simulated machine by hand
 * (no harness) and runs it under both policies.
 *
 * This is the template to copy when adding a new workload.
 */

#include <cstdio>
#include <memory>

#include "kernel/kswapd.hh"
#include "kernel/memory_manager.hh"
#include "policy/policy_factory.hh"
#include "sim/simulation.hh"
#include "stats/table.hh"
#include "swap/ssd_device.hh"
#include "swap/swap_manager.hh"
#include "workload/access_pattern.hh"
#include "workload/work_thread.hh"

using namespace pagesim;

namespace
{

/**
 * Log-structured ingest: writers append to a growing log (write-once,
 * never re-read) while also updating a small hot index (B-tree-ish:
 * random re-writes). A good replacement policy should stream the log
 * out of memory and pin the index.
 */
class LogIngestWorkload : public Workload
{
  public:
    LogIngestWorkload(std::uint64_t log_pages,
                      std::uint64_t index_pages, unsigned threads)
        : logPages_(log_pages), indexPages_(index_pages),
          threads_(threads),
          barrier_(std::make_unique<SimBarrier>(threads))
    {
    }

    const std::string &name() const override { return name_; }

    std::uint64_t
    footprintPages() const override
    {
        return logPages_ + indexPages_;
    }

    unsigned numThreads() const override { return threads_; }

    void
    build(WorkloadContext &ctx) override
    {
        logBase_ = ctx.space->map("ingest.log", logPages_);
        indexBase_ = ctx.space->map("ingest.index", indexPages_);
    }

    std::unique_ptr<OpStream>
    stream(unsigned tid) override
    {
        // Each thread owns a contiguous log extent and appends to it
        // in rounds; after each extent chunk it does a burst of
        // random index updates.
        const std::uint64_t lo = logPages_ * tid / threads_;
        const std::uint64_t hi = logPages_ * (tid + 1) / threads_;
        constexpr std::uint64_t kChunk = 256;
        std::vector<Segment> segs;
        for (std::uint64_t at = lo; at < hi; at += kChunk) {
            const std::uint64_t n = std::min(kChunk, hi - at);
            // Append: write-once pages the policy should let go.
            segs.push_back(SeqTouch{logBase_ + at, n, true, false,
                                    usecs(40)});
            // Index update burst: the hot set to protect.
            RandTouch idx;
            idx.base = indexBase_;
            idx.span = indexPages_;
            idx.count = n * 2;
            idx.write = true;
            idx.zipfTheta = 0.8;
            idx.computePerTouch = usecs(2);
            idx.seed = splitmix64(at * 131 + tid);
            segs.push_back(idx);
        }
        segs.push_back(BarrierSeg{0});
        return std::make_unique<PatternStream>(std::move(segs));
    }

    SimBarrier *barrier(std::uint32_t) override { return barrier_.get(); }

  private:
    std::uint64_t logPages_;
    std::uint64_t indexPages_;
    unsigned threads_;
    std::string name_ = "LogIngest";
    std::unique_ptr<SimBarrier> barrier_;
    Vpn logBase_ = 0;
    Vpn indexBase_ = 0;
};

/** Assemble a machine and run the workload once under @p kind. */
FaultStats
runOnce(PolicyKind kind, double capacity_ratio, SimTime &runtime_out)
{
    Simulation sim(12, 42);
    LogIngestWorkload workload(12000, 2000, 8);

    MmConfig mm_config;
    mm_config.totalFrames = static_cast<std::uint32_t>(
        workload.footprintPages() * capacity_ratio);
    mm_config.deriveWatermarks();
    mm_config.swapSlots = 40000;

    FrameTable frames(mm_config.totalFrames);
    AddressSpace space(0);
    SsdSwapDevice device(sim.events(), sim.forkRng("ssd"));
    SwapManager swap(device, mm_config.swapSlots);
    auto policy = makePolicy(kind, frames, {&space}, mm_config.costs,
                             sim.forkRng("policy"), {}, &sim.events());
    MemoryManager mm(sim, frames, swap, {{MemcgConfig{}, policy.get()}},
                     mm_config);
    Kswapd kswapd(sim, mm);
    mm.attachKswapd(&kswapd);
    kswapd.start();

    WorkloadContext ctx;
    ctx.mm = &mm;
    ctx.space = &space;
    workload.build(ctx);

    std::vector<std::unique_ptr<WorkThread>> threads;
    for (unsigned tid = 0; tid < workload.numThreads(); ++tid) {
        threads.push_back(std::make_unique<WorkThread>(
            sim, mm, workload, space, tid));
        threads.back()->start();
    }
    if (!sim.runToCompletion(500000000ull)) {
        std::fprintf(stderr, "did not converge\n");
        std::abort();
    }
    runtime_out = sim.now();
    return mm.stats();
}

} // namespace

int
main(int argc, char **argv)
{
    const double ratio = argc > 1 ? std::atof(argv[1]) : 0.5;
    std::printf("custom workload (log ingest + hot index) at %.0f%% "
                "capacity\n\n",
                ratio * 100);
    TextTable table;
    table.header({"policy", "runtime", "major faults", "evictions",
                  "clean drops"});
    for (PolicyKind kind : {PolicyKind::Clock, PolicyKind::MgLru,
                            PolicyKind::ScanNone}) {
        SimTime runtime = 0;
        const FaultStats stats = runOnce(kind, ratio, runtime);
        table.row({policyKindName(kind),
                   fmtNanos(static_cast<double>(runtime)),
                   fmtCount(stats.majorFaults),
                   fmtCount(stats.evictions),
                   fmtCount(stats.cleanDrops)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::puts("\nA policy that streams the write-once log and pins "
              "the index shows fewer major faults (the index never "
              "refaults) and high clean-drop counts are impossible "
              "here (the log is dirty) — compare with your own "
              "workload's profile.");
    return 0;
}
