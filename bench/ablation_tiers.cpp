/**
 * @file
 * Ablation: tiers + PID controller under buffered I/O.
 *
 * The paper skips PID characterization because its workloads barely
 * touch file descriptors (Sec. III-D). The FileBuffer workload makes
 * fd traffic dominant: a streamed read-once file, a hot re-read file
 * region, and a competing anonymous working set. We compare default
 * MG-LRU, MG-LRU with tier protection disabled, a PID with stiffer
 * gains, and Clock.
 *
 * Expected: with tier protection, the hot file pages survive the
 * stream (fewer refaults, faster rounds); without it they're evicted
 * alongside the read-once pages and refault every round.
 */

#include <cstdio>

#include "common.hh"

using namespace pagesim;
using namespace pagesim::bench;

int
main()
{
    ExperimentConfig base = baseConfig();
    base.workload = WorkloadKind::FileBuffer;
    base.swap = SwapKind::Ssd;
    // Most of the footprint is a read-once stream; 25% capacity means
    // memory fits the hot set plus a couple of stream chunks — the
    // classic scan-resistance setup.
    base.capacityRatio = 0.25;
    banner("Ablation: tiers + PID",
           "buffered-I/O workload, tier protection on/off (SSD, 25%)",
           base);

    struct Variant
    {
        std::string name;
        PolicyKind kind;
        MgLruOverrides mglru;
    };
    std::vector<Variant> variants;
    const auto add = [&variants](std::string name,
                                 PolicyKind kind) -> MgLruOverrides & {
        variants.push_back({std::move(name), kind, {}});
        return variants.back().mglru;
    };
    add("MG-LRU (tiers+PID)", PolicyKind::MgLru);
    add("MG-LRU no-tiers", PolicyKind::MgLru).tierProtection = false;
    MgLruOverrides &stiff = add("MG-LRU stiff-PID", PolicyKind::MgLru);
    stiff.pid.kp = 2.0;
    stiff.pid.ki = 0.5;
    add("Clock", PolicyKind::Clock);
    const auto cell = [&base](const Variant &variant) {
        ExperimentConfig c = base;
        c.policy = variant.kind;
        c.mglru = variant.mglru;
        return c;
    };

    ResultCache cache;
    std::vector<ExperimentConfig> cells;
    for (const Variant &variant : variants)
        cells.push_back(cell(variant));
    cache.prefetch(cells);

    TextTable table;
    table.header({"policy", "mean runtime", "vs tiers+PID",
                  "mean faults", "refaults", "tier-protected"});
    double base_rt = 0;
    for (const Variant &variant : variants) {
        const ExperimentResult &res = cache.get(cell(variant));
        const double rt = res.runtimeSummary().mean();
        if (base_rt == 0)
            base_rt = rt;
        double refaults = 0, protected_pages = 0;
        for (const auto &t : res.trials) {
            refaults += static_cast<double>(t.policy.refaults);
            protected_pages +=
                static_cast<double>(t.mglru.tierProtected);
        }
        const double n = static_cast<double>(res.trials.size());
        table.row({variant.name, fmtNanos(rt), fmtX(rt / base_rt),
                   fmtCount(static_cast<std::uint64_t>(
                       faultMetric(res))),
                   fmtCount(static_cast<std::uint64_t>(refaults / n)),
                   fmtCount(static_cast<std::uint64_t>(
                       protected_pages / n))});
    }
    std::fputs(table.render().c_str(), stdout);
    std::puts("\nreading: tier protection should cut refaults (and "
              "runtime) versus no-tiers; Clock has no tier concept "
              "and treats all file pages alike.");
    return 0;
}
