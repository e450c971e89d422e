/**
 * @file
 * Ablation: is the Bloom filter a necessary data structure?
 *
 * The paper's discussion (Sec. VI-C) questions the filter's utility
 * after seeing Scan-Rand match or beat default MG-LRU. This bench
 * sweeps the filter size, the young-density threshold that admits
 * regions into it, and the Scan-Rand probability axis, reporting
 * performance, fault counts, and scan volume on TPC-H and PageRank.
 * It goes beyond the paper's tested grid by design.
 */

#include <cstdio>
#include <vector>

#include "common.hh"

using namespace pagesim;
using namespace pagesim::bench;

namespace
{

struct Variant
{
    std::string name;
    PolicyKind kind = PolicyKind::MgLru;
    MgLruOverrides mglru;
};

std::vector<Variant>
variants()
{
    std::vector<Variant> out;
    const auto add = [&out](std::string name,
                            PolicyKind kind) -> MgLruOverrides & {
        out.push_back({std::move(name), kind, {}});
        return out.back().mglru;
    };
    // First: the default MG-LRU cell every row is normalized to.
    add("bloom-32Ki (default)", PolicyKind::MgLru);
    add("bloom-2Ki", PolicyKind::MgLru).bloomBits = 1u << 11;
    add("bloom-512Ki", PolicyKind::MgLru).bloomBits = 1u << 19;
    add("bloom-1hash", PolicyKind::MgLru).bloomHashes = 1;
    add("dense-gate x4", PolicyKind::MgLru).youngDensityThreshold =
        kPtesPerRegion / 2;
    add("dense-gate /4", PolicyKind::MgLru).youngDensityThreshold =
        std::max<std::uint32_t>(kPtesPerRegion / 32, 1);
    for (double p : {0.25, 0.75}) {
        add("scan-rand p=" + fmtF(p, 2), PolicyKind::ScanRand)
            .randomScanProb = p;
    }
    add("scan-rand p=0.50", PolicyKind::ScanRand);
    add("scan-all (no filter)", PolicyKind::ScanAll);
    add("scan-none", PolicyKind::ScanNone);
    return out;
}

} // namespace

int
main()
{
    ExperimentConfig base = baseConfig();
    base.swap = SwapKind::Ssd;
    base.capacityRatio = 0.5;
    banner("Ablation: Bloom filter",
           "filter sizing / density gate / randomness sweep "
           "(SSD, 50%) — beyond the paper's grid, per its Sec. VI-C "
           "question",
           base);

    const std::vector<WorkloadKind> workloads = {WorkloadKind::Tpch,
                                                 WorkloadKind::PageRank};
    const std::vector<Variant> all = variants();
    const auto cell = [&base](WorkloadKind wk, const Variant &variant) {
        ExperimentConfig c = base;
        c.workload = wk;
        c.policy = variant.kind;
        c.mglru = variant.mglru;
        return c;
    };

    ResultCache cache;
    std::vector<ExperimentConfig> cells;
    for (WorkloadKind wk : workloads)
        for (const Variant &variant : all)
            cells.push_back(cell(wk, variant));
    cache.prefetch(cells);

    for (WorkloadKind wk : workloads) {
        std::printf("--- %s ---\n", workloadKindName(wk).c_str());
        const double def_perf = perfMetric(cache.get(cell(wk, all.front())));

        TextTable table;
        table.header({"variant", "perf vs default", "mean faults",
                      "PTEs scanned", "regions skipped",
                      "bloom inserts"});
        for (const Variant &variant : all) {
            const ExperimentResult &res = cache.get(cell(wk, variant));
            double ptes = 0, skipped = 0, inserts = 0;
            for (const auto &t : res.trials) {
                ptes += static_cast<double>(t.policy.ptesScanned);
                skipped +=
                    static_cast<double>(t.policy.regionsSkipped);
                inserts +=
                    static_cast<double>(t.mglru.bloomInsertions);
            }
            const double n = static_cast<double>(res.trials.size());
            table.row({variant.name,
                       fmtX(perfMetric(res) / def_perf),
                       fmtCount(static_cast<std::uint64_t>(
                           faultMetric(res))),
                       fmtCount(static_cast<std::uint64_t>(ptes / n)),
                       fmtCount(static_cast<std::uint64_t>(
                           skipped / n)),
                       fmtCount(static_cast<std::uint64_t>(
                           inserts / n))});
        }
        std::fputs(table.render().c_str(), stdout);
        std::puts("");
    }
    std::puts("reading: if randomness at p=0.5 matches the tuned "
              "filter within noise, the filter's complexity buys "
              "little here — the paper's Sec. VI-C hypothesis.");
    return 0;
}
