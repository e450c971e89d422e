/**
 * @file
 * Fault timeline: flight-recorder view of one trial.
 *
 * Assembles a machine by hand with a TraceBuffer AND a
 * MetricsCollector attached, runs one TPC-H trial, and prints
 * fault/eviction/stall rate timelines as sparklines plus burstiness
 * metrics — making the mechanisms behind the paper's variance figures
 * visible: JVM full-GC fault storms show up as spikes, reclaim
 * pressure as eviction plateaus. The metrics layer then breaks the
 * same faults down by phase (metrics/ observability API).
 *
 * Usage: fault_timeline [seed] [buckets]
 */

#include <cstdio>
#include <memory>

#include "harness/experiment.hh"
#include "kernel/kswapd.hh"
#include "kernel/memory_manager.hh"
#include "kernel/mm_metrics.hh"
#include "metrics/export.hh"
#include "stats/table.hh"
#include "swap/ssd_device.hh"
#include "swap/swap_manager.hh"
#include "trace/trace.hh"
#include "workload/work_thread.hh"

using namespace pagesim;

int
main(int argc, char **argv)
{
    const std::uint64_t seed = argc > 1 ? std::atoll(argv[1]) : 7;
    const unsigned buckets = argc > 2 ? std::atoi(argv[2]) : 60;

    Simulation sim(12, seed);
    auto workload = makeWorkload(WorkloadKind::Tpch,
                                 ScalePreset::Default);
    MmConfig mm_config;
    mm_config.totalFrames =
        static_cast<std::uint32_t>(workload->footprintPages() * 0.5);
    mm_config.deriveWatermarks();
    mm_config.swapSlots = static_cast<std::uint32_t>(
        workload->footprintPages() * 2 + 4096);

    FrameTable frames(mm_config.totalFrames);
    AddressSpace space(0);
    space.enableAslr(splitmix64(seed));
    SsdSwapDevice device(sim.events(), sim.forkRng("ssd"));
    SwapManager swap(device, mm_config.swapSlots);
    auto policy = makePolicy(PolicyKind::MgLru, frames, {&space},
                             mm_config.costs, sim.forkRng("policy"),
                             {}, &sim.events());
    MemoryManager mm(sim, frames, swap, {{MemcgConfig{}, policy.get()}},
                     mm_config);
    Kswapd kswapd(sim, mm);
    mm.attachKswapd(&kswapd);
    kswapd.start();

    TraceBuffer trace(1u << 22);
    mm.attachTrace(&trace);

    MetricsConfig metrics_config;
    metrics_config.mode = MetricsMode::Full;
    MetricsCollector collector(metrics_config);
    attachStandardMetrics(collector, mm);

    WorkloadContext ctx;
    ctx.mm = &mm;
    ctx.space = &space;
    ctx.envSeed = splitmix64(seed ^ 0xecedeul);
    workload->build(ctx);
    std::vector<std::unique_ptr<WorkThread>> threads;
    for (unsigned tid = 0; tid < workload->numThreads(); ++tid) {
        threads.push_back(std::make_unique<WorkThread>(
            sim, mm, *workload, space, tid));
        threads.back()->start();
    }
    if (!sim.runToCompletion(2000000000ull)) {
        std::fprintf(stderr, "did not converge\n");
        return 1;
    }

    const SimTime end = sim.now();
    const SimDuration bucket = end / buckets + 1;
    std::printf("TPC-H / MG-LRU / SSD / 50%%, seed %llu — runtime "
                "%s, %s per bucket\n\n",
                static_cast<unsigned long long>(seed),
                fmtNanos(static_cast<double>(end)).c_str(),
                fmtNanos(static_cast<double>(bucket)).c_str());
    for (TraceEvent ev :
         {TraceEvent::MajorFault, TraceEvent::Eviction,
          TraceEvent::DirtyWriteback, TraceEvent::DirectReclaim,
          TraceEvent::AgingPass, TraceEvent::AllocStall,
          TraceEvent::ReadaheadRead, TraceEvent::ReadaheadHit,
          TraceEvent::WritebackRemap, TraceEvent::IoWaitFault}) {
        const auto series = trace.rateSeries(ev, bucket, end);
        std::printf("%-16s |%s| n=%llu burstiness=%.2f\n",
                    traceEventName(ev).c_str(),
                    asciiSparkline(series).c_str(),
                    static_cast<unsigned long long>(trace.count(ev)),
                    trace.burstiness(ev, bucket, end));
    }
    std::puts("\nSpikes spanning every series at once are JVM full-GC "
              "storms — the trial-to-trial variance quantum of the "
              "paper's Fig. 2. Re-run with another seed to watch them "
              "move.");

    // The metrics layer sees the same trial with latency attribution:
    // where each fault's time went, and policy internals over time.
    std::puts("");
    std::fputs(metricsReport(collector.snapshot(sim.now())).c_str(),
               stdout);
    return 0;
}
