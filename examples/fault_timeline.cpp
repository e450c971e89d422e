/**
 * @file
 * Fault timeline: the event-rate view of one trial.
 *
 * Assembles a machine by hand with a Full-mode MetricsCollector
 * attached, runs one TPC-H trial, and prints the sampler's event-rate
 * columns (major faults, evictions, stalls, readahead, ...) as
 * sparklines plus their burstiness — making the mechanisms behind the
 * paper's variance figures visible: JVM full-GC fault storms show up
 * as spikes, reclaim pressure as eviction plateaus. The metrics report
 * then breaks the same faults down by phase.
 *
 * Self-check: after a final sample, every rate column must sum to its
 * kernel counter's growth since attach; the program exits 1 if one
 * does not.
 *
 * Usage: fault_timeline [seed]
 */

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <memory>

#include "harness/experiment.hh"
#include "kernel/kswapd.hh"
#include "kernel/memory_manager.hh"
#include "kernel/mm_metrics.hh"
#include "metrics/export.hh"
#include "stats/summary.hh"
#include "stats/table.hh"
#include "swap/ssd_device.hh"
#include "swap/swap_manager.hh"
#include "workload/work_thread.hh"

using namespace pagesim;

int
main(int argc, char **argv)
{
    const std::uint64_t seed = argc > 1 ? std::atoll(argv[1]) : 7;

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

    // Half-second rows: a ~30 s trial gives ~60-glyph sparklines.
    MetricsConfig metrics_config;
    metrics_config.mode = MetricsMode::Full;
    metrics_config.sampleEvery = msecs(500);
    MetricsCollector collector(metrics_config);
    std::vector<std::uint64_t> at_attach;
    for (const EventRate &rate : eventRates())
        at_attach.push_back(rate.count(mm));
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
    // Close the last interval so each column covers the whole trial.
    collector.sampler().stop();
    collector.sampler().sampleOnce(sim.now());

    const MetricsSnapshot snapshot = collector.snapshot(sim.now());
    const SampleSeries &ts = snapshot.timeseries;
    std::printf("TPC-H / MG-LRU / SSD / 50%%, seed %llu — runtime "
                "%s, %s per sample\n\n",
                static_cast<unsigned long long>(seed),
                fmtNanos(static_cast<double>(sim.now())).c_str(),
                fmtNanos(static_cast<double>(metrics_config.sampleEvery))
                    .c_str());
    int status = 0;
    for (std::size_t i = 0; i < eventRates().size(); ++i) {
        const EventRate &rate = eventRates()[i];
        const auto col = std::find(ts.names.begin(), ts.names.end(),
                                   rate.probe);
        if (col == ts.names.end()) {
            std::fprintf(stderr, "missing column %s\n", rate.probe);
            return 1;
        }
        Summary column;
        column.addAll(ts.columns[std::distance(ts.names.begin(), col)]);
        const std::uint64_t n = rate.count(mm) - at_attach[i];
        std::printf("%-24s |%s| n=%llu burstiness=%.2f\n", rate.probe,
                    asciiSparkline(column.samples()).c_str(),
                    static_cast<unsigned long long>(n), column.cv());
        if (column.sum() != static_cast<double>(n)) {
            std::fprintf(stderr, "%s sums to %.0f, counter grew %llu\n",
                         rate.probe, column.sum(),
                         static_cast<unsigned long long>(n));
            status = 1;
        }
    }
    std::puts("\nSpikes spanning every series at once are JVM full-GC "
              "storms — the trial-to-trial variance quantum of the "
              "paper's Fig. 2. Re-run with another seed to watch them "
              "move.");

    // The same trial with latency attribution: where each fault's
    // time went, and policy internals over time.
    std::puts("");
    std::fputs(metricsReport(snapshot).c_str(), stdout);
    return status;
}
