/**
 * @file
 * Aging-walk tuning: what happens if MG-LRU DID have a dedicated
 * aging thread, and how its pacing interacts with workloads.
 *
 * The default pagesim configuration runs MG-LRU aging in reclaim
 * contexts (as the kernel does). This example attaches the optional
 * AgingDaemon — a dedicated walker thread — and sweeps its pacing,
 * showing the tradeoff the paper's Sec. VI-B discusses: faster scans
 * buy decision quality but burn CPU and add scheduling interference.
 *
 * Usage: tuning_walks [tpch|pagerank] [ratio]
 */

#include <cstdio>
#include <cstring>
#include <memory>

#include "kernel/aging_daemon.hh"
#include "kernel/kswapd.hh"
#include "kernel/memory_manager.hh"
#include "policy/policy_factory.hh"
#include "sim/simulation.hh"
#include "stats/table.hh"
#include "swap/ssd_device.hh"
#include "swap/swap_manager.hh"
#include "workload/work_thread.hh"

#include "harness/experiment.hh"

using namespace pagesim;

namespace
{

struct RunResult
{
    SimTime runtime;
    std::uint64_t faults;
    std::uint64_t walks;
    SimDuration walkerCpu;
};

RunResult
runWithDaemon(WorkloadKind wk, double ratio, SimDuration slice_gap,
              std::uint32_t slice_regions)
{
    Simulation sim(12, 7);
    auto workload = makeWorkload(wk, ScalePreset::Default);

    MmConfig mm_config;
    mm_config.totalFrames = static_cast<std::uint32_t>(
        workload->footprintPages() * ratio);
    mm_config.deriveWatermarks();
    mm_config.swapSlots = static_cast<std::uint32_t>(
        workload->footprintPages() * 2 + 4096);
    mm_config.agingSliceGap = slice_gap;
    mm_config.agingSliceRegions = slice_regions;

    FrameTable frames(mm_config.totalFrames);
    AddressSpace space(0);
    SsdSwapDevice device(sim.events(), sim.forkRng("ssd"));
    SwapManager swap(device, mm_config.swapSlots);
    const std::uint32_t total = mm_config.totalFrames;
    auto policy = makePolicy(
        PolicyKind::MgLru, frames, {&space}, mm_config.costs,
        sim.forkRng("policy"),
        [total](MgLruConfig &mg) {
            mg.agingLowPages = std::max<std::uint64_t>(total / 8, 256);
            mg.agingEvictGate =
                std::max<std::uint64_t>(total / 16, 64);
        },
        &sim.events());
    MemoryManager mm(sim, frames, swap, {{MemcgConfig{}, policy.get()}},
                     mm_config);
    Kswapd kswapd(sim, mm);
    mm.attachKswapd(&kswapd);
    kswapd.start();
    AgingDaemon walker(sim, mm, sim.forkRng("walker"));
    mm.attachAgingDaemon(&walker);
    walker.start();

    WorkloadContext ctx;
    ctx.mm = &mm;
    ctx.space = &space;
    workload->build(ctx);
    std::vector<std::unique_ptr<WorkThread>> threads;
    for (unsigned tid = 0; tid < workload->numThreads(); ++tid) {
        threads.push_back(std::make_unique<WorkThread>(
            sim, mm, *workload, space, tid));
        threads.back()->start();
    }
    if (!sim.runToCompletion(2000000000ull)) {
        std::fprintf(stderr, "did not converge\n");
        std::abort();
    }
    return RunResult{sim.now(), mm.stats().majorFaults,
                     walker.passes(), walker.cpuWork()};
}

} // namespace

int
main(int argc, char **argv)
{
    const WorkloadKind wk =
        (argc > 1 && std::strcmp(argv[1], "pagerank") == 0)
            ? WorkloadKind::PageRank
            : WorkloadKind::Tpch;
    const double ratio = argc > 2 ? std::atof(argv[2]) : 0.5;
    std::printf("dedicated aging-walker pacing sweep: %s at %.0f%%\n\n",
                workloadKindName(wk).c_str(), ratio * 100);

    struct Pace
    {
        const char *name;
        SimDuration gap;
        std::uint32_t regions;
    };
    const Pace paces[] = {
        {"lazy (4 regions / 3.2ms)", usecs(3200), 4},
        {"default (4 regions / 800us)", usecs(800), 4},
        {"eager (16 regions / 200us)", usecs(200), 16},
    };
    TextTable table;
    table.header({"pacing", "runtime", "faults", "walker passes",
                  "walker CPU"});
    for (const Pace &pace : paces) {
        const RunResult r =
            runWithDaemon(wk, ratio, pace.gap, pace.regions);
        table.row({pace.name,
                   fmtNanos(static_cast<double>(r.runtime)),
                   fmtCount(r.faults), fmtCount(r.walks),
                   fmtNanos(static_cast<double>(r.walkerCpu))});
    }
    std::fputs(table.render().c_str(), stdout);
    std::puts("\nEager walking keeps generations fresher (fewer "
              "faults when scans were the bottleneck) at the price of "
              "walker CPU — the scanning-overhead-vs-quality tension "
              "of the paper's Sec. VI-B.");
    return 0;
}
