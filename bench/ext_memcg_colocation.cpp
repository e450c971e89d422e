/**
 * @file
 * Extension bench: multi-tenant memcg colocation.
 *
 * The paper characterizes each policy one workload at a time; this
 * bench puts three of its workloads on ONE machine — YCSB-A (zipfian
 * kv-store) beside TPC-H (scan-heavy) beside PageRank (irregular
 * graph) — each in its own memcg with its own lruvec, and shows what
 * per-tenant cgroup watermarks do to the noisy-neighbor dynamics:
 *
 *   baseline    no limits: global reclaim fans out proportionally to
 *               reclaimable size, so the biggest consumer pays most.
 *   protected   memory.low shields 60% of the latency-sensitive
 *               YCSB tenant's footprint from global reclaim.
 *   capped      memory.max holds the scan-heavy TPC-H tenant to 45%
 *               of its footprint: its own faults run limit-reclaim
 *               inline (the latency lands on the offender).
 *
 * Per-tenant MemcgStats make the shift visible: protected skips and
 * major-fault counts move between tenants while machine totals stay
 * comparable.
 *
 * --smoke runs one small-scale trial per mode (the CI wiring).
 */

#include <cstdio>
#include <cstring>

#include "common.hh"
#include "harness/colocation.hh"

using namespace pagesim;
using namespace pagesim::bench;

namespace
{

ColocationConfig
scenario(bool smoke)
{
    ColocationConfig config;
    config.policy = PolicyKind::MgLru;
    config.swap = SwapKind::Ssd;
    config.capacityRatio = 0.5;
    config.trials = smoke ? 1 : kBenchTrials;
    config.baseSeed = 12345;
    const ScalePreset scale =
        smoke ? ScalePreset::Small : ScalePreset::Default;
    config.tenants = {
        {.name = "ycsb", .workload = WorkloadKind::YcsbA, .scale = scale,
         .policy = std::nullopt},
        {.name = "tpch", .workload = WorkloadKind::Tpch, .scale = scale,
         .policy = std::nullopt},
        {.name = "pagerank", .workload = WorkloadKind::PageRank,
         .scale = scale, .policy = std::nullopt},
    };
    return config;
}

void
renderMode(const char *name, const ColocationResult &res)
{
    std::printf("--- %s ---\n", name);
    TextTable table;
    table.header({"tenant", "finish", "major faults", "direct recl",
                  "evictions", "throttles", "prot skips", "peak use",
                  "mean req"});
    const double n = static_cast<double>(res.trials.size());
    for (std::size_t i = 0; i < res.config.tenants.size(); ++i) {
        double finish = 0, majf = 0, direct = 0, evict = 0, thr = 0,
               skips = 0, peak = 0, req = 0;
        for (const auto &t : res.trials) {
            const TenantResult &tr = t.tenants[i];
            finish += static_cast<double>(tr.finishNs);
            majf += static_cast<double>(tr.memcgStats.majorFaults);
            direct += static_cast<double>(tr.memcgStats.directReclaims);
            evict += static_cast<double>(tr.memcgStats.evictions);
            thr += static_cast<double>(tr.memcgStats.throttleEvents);
            skips += static_cast<double>(tr.memcgStats.protectedSkips);
            peak += static_cast<double>(tr.memcgStats.peakUsage);
            req += tr.meanRequestNs;
        }
        table.row(
            {res.config.tenants[i].name,
             fmtNanos(finish / n),
             fmtCount(static_cast<std::uint64_t>(majf / n)),
             fmtCount(static_cast<std::uint64_t>(direct / n)),
             fmtCount(static_cast<std::uint64_t>(evict / n)),
             fmtCount(static_cast<std::uint64_t>(thr / n)),
             fmtCount(static_cast<std::uint64_t>(skips / n)),
             fmtCount(static_cast<std::uint64_t>(peak / n)),
             req > 0 ? fmtNanos(req / n) : std::string("-")});
    }
    std::fputs(table.render().c_str(), stdout);
    std::puts("");
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke =
        argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

    std::puts("=== Extension: memcg colocation "
              "(YCSB-A + TPC-H + PageRank, one machine) ===");
    std::printf("capacity 50%% of summed footprints, MG-LRU per "
                "tenant, SSD swap%s\n\n",
                smoke ? " [smoke]" : "");

    struct Mode
    {
        const char *name;
        double ycsbLow;
        double tpchMax;
    };
    const Mode modes[] = {
        {"baseline (no limits)", 0.0, 0.0},
        {"protected (ycsb memory.low = 60%)", 0.6, 0.0},
        {"capped (tpch memory.max = 45%)", 0.0, 0.45},
    };

    for (const Mode &mode : modes) {
        ColocationConfig config = scenario(smoke);
        config.tenants[0].lowRatio = mode.ycsbLow;
        config.tenants[1].maxRatio = mode.tpchMax;
        renderMode(mode.name, runColocation(config));
    }

    std::puts("reading: protection moves reclaim pressure off the "
              "kv-store tenant (its major faults drop, the others' "
              "rise); the hard cap makes the scan tenant reclaim its "
              "own lruvec inline, so the noisy neighbor pays for its "
              "own appetite — the per-tenant dynamics the paper's "
              "single-workload methodology cannot see.");
    return 0;
}
