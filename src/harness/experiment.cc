#include "harness/experiment.hh"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>

#include "harness/trial_rig.hh"

#include "graph/pagerank_workload.hh"
#include "kv/ycsb_workload.hh"
#include "metrics/export.hh"
#include "tpch/tpch_workload.hh"
#include "workload/file_buffer_workload.hh"

namespace pagesim
{

const std::string &
swapKindName(SwapKind kind)
{
    static const std::string names[] = {"SSD", "ZRAM"};
    return names[static_cast<int>(kind)];
}

const std::vector<WorkloadKind> &
allWorkloadKinds()
{
    static const std::vector<WorkloadKind> kinds = {
        WorkloadKind::Tpch,  WorkloadKind::PageRank,
        WorkloadKind::YcsbA, WorkloadKind::YcsbB,
        WorkloadKind::YcsbC,
    };
    return kinds;
}

const std::string &
workloadKindName(WorkloadKind kind)
{
    static const std::string names[] = {
        "TPC-H", "PageRank", "YCSB-A", "YCSB-B", "YCSB-C",
        "FileBuffer",
    };
    return names[static_cast<int>(kind)];
}

namespace
{

/** Scale presets (see DESIGN.md Sec. 3 for the scaling rules). */
struct ScaleParams
{
    std::uint64_t tpchLineitemRows;
    std::uint32_t prVertices;
    std::uint64_t prEdges;
    unsigned prIterations;
    std::uint64_t ycsbItems;
    double ycsbRequestsPerItem;
    std::uint32_t ycsbItemBytes;
};

ScaleParams
scaleParams(ScalePreset scale)
{
    switch (scale) {
      case ScalePreset::Small:
        return ScaleParams{60000, 1u << 16, 1ull << 19, 3, 6000, 5.0,
                           1200};
      // The Big presets size only YCSB (TPC-H/PageRank keep Default
      // params): 16 KiB items make the slab 4 pages per item, of
      // which a request touches the first and last — a big, sparsely
      // referenced address space whose PTE walks dwarf the request
      // stream, like a real 256 GiB memcached box.
      case ScalePreset::Big1M:
        // 256 Ki items x 16 KiB = 2^20 slab pages (4 GiB).
        return ScaleParams{600000, 1u << 19, 1ull << 22, 8, 1ull << 18,
                           1.0, 16384};
      case ScalePreset::Big64M:
        // 16 Mi items x 16 KiB = 2^26 slab pages (256 GiB).
        return ScaleParams{600000, 1u << 19, 1ull << 22, 8, 1ull << 24,
                           0.25, 16384};
      case ScalePreset::Default:
      default:
        return ScaleParams{600000, 1u << 19, 1ull << 22, 8, 48000,
                           10.0, 1200};
    }
}

/** Cache of shared PageRank datasets (graph build is expensive). */
std::shared_ptr<const PrDataset>
cachedPrDataset(ScalePreset scale)
{
    static std::mutex mutex;
    static std::shared_ptr<const PrDataset> cache[4];
    // The Big presets reuse Default's PageRank sizing; share the slot
    // so they never rebuild an identical dataset.
    if (scale == ScalePreset::Big1M || scale == ScalePreset::Big64M)
        scale = ScalePreset::Default;
    std::lock_guard<std::mutex> lock(mutex);
    auto &slot = cache[static_cast<int>(scale)];
    if (!slot) {
        const ScaleParams p = scaleParams(scale);
        PageRankConfig config;
        config.graph.vertices = p.prVertices;
        config.graph.targetEdges = p.prEdges;
        config.iterations = p.prIterations;
        slot = buildPrDataset(config);
    }
    return slot;
}

} // namespace

std::unique_ptr<Workload>
makeWorkload(WorkloadKind kind, ScalePreset scale)
{
    const ScaleParams p = scaleParams(scale);
    switch (kind) {
      case WorkloadKind::Tpch: {
        TpchConfig config;
        config.lineitemRows = p.tpchLineitemRows;
        return std::make_unique<TpchWorkload>(config);
      }
      case WorkloadKind::PageRank:
        return std::make_unique<PageRankWorkload>(
            cachedPrDataset(scale));
      case WorkloadKind::YcsbA:
      case WorkloadKind::YcsbB:
      case WorkloadKind::YcsbC: {
        YcsbConfig config;
        config.kv.items = p.ycsbItems;
        config.kv.itemBytes = p.ycsbItemBytes;
        config.requestsPerItem = p.ycsbRequestsPerItem;
        config.mix = kind == WorkloadKind::YcsbA   ? YcsbMix::A
                     : kind == WorkloadKind::YcsbB ? YcsbMix::B
                                                   : YcsbMix::C;
        return std::make_unique<YcsbWorkload>(config);
      }
      case WorkloadKind::FileBuffer: {
        FileBufferConfig config;
        if (scale == ScalePreset::Small) {
            config.anonPages /= 8;
            config.streamChunkPages /= 8;
            config.hotFilePages /= 8;
            config.rounds = 4;
            config.hotReadsPerRound /= 8;
        }
        return std::make_unique<FileBufferWorkload>(config);
      }
    }
    return nullptr;
}

std::string
ExperimentConfig::label() const
{
    return TrialRig::scenario(*this).label();
}

namespace
{

/**
 * PAGESIM_AUDIT_EVERY=N forces a full cross-layer invariant audit
 * every N reclaim batches in every trial, aborting on the first
 * violation (the CI sanitizer job sets N=1). Unset or invalid leaves
 * the MmConfig default (off) — audits are not free. Cached once per
 * process like the other launch-time knobs; tests that mutate the
 * environment call detail::refreshAuditEveryOverrideCacheForTests().
 */
std::optional<unsigned> &
auditEveryOverrideCache()
{
    static std::optional<unsigned> cache =
        parseTrialsOverride(std::getenv("PAGESIM_AUDIT_EVERY"));
    return cache;
}

} // namespace

unsigned
effectiveAuditEvery()
{
    return auditEveryOverrideCache().value_or(0);
}

void
detail::refreshAuditEveryOverrideCacheForTests()
{
    auditEveryOverrideCache() =
        parseTrialsOverride(std::getenv("PAGESIM_AUDIT_EVERY"));
}

MetricsConfig
effectiveMetricsConfig(const MetricsConfig &config)
{
    // PAGESIM_METRICS=off|counters|full overrides the mode and
    // PAGESIM_METRICS_DIR the artifact directory: launch-time knobs,
    // read and parsed once per process (this runs per trial).
    static const std::optional<MetricsMode> mode = [] {
        const char *text = std::getenv("PAGESIM_METRICS");
        if (text == nullptr || *text == '\0')
            return std::optional<MetricsMode>{};
        return std::optional<MetricsMode>{parseMetricsMode(text)};
    }();
    static const char *const dir_env = std::getenv("PAGESIM_METRICS_DIR");
    static const std::string dir = dir_env != nullptr ? dir_env : "";
    MetricsConfig m = config;
    if (mode) {
        m.mode = *mode;
        // An env opt-in without a destination still wants artifacts.
        if (m.artifactDir.empty())
            m.artifactDir = "pagesim_metrics";
    }
    if (!dir.empty())
        m.artifactDir = dir;
    return m;
}

std::string
writeTrialArtifacts(const std::string &dir, const std::string &label,
                    std::uint64_t trial_seed,
                    const MetricsSnapshot &snapshot)
{
    std::string base = label;
    for (char &c : base) {
        if (c == '/' || c == '%' || c == ' ')
            c = '_';
    }
    base += "-seed" + std::to_string(trial_seed);
    std::filesystem::create_directories(dir);
    const std::string stem = dir + "/" + base;
    // Trials run in parallel, but each writes only its own uniquely
    // named files, so no cross-thread coordination is needed.
    std::ofstream(stem + ".trace.json") << chromeTraceJson(snapshot);
    std::ofstream(stem + ".timeseries.csv")
        << timeseriesCsv(snapshot.timeseries);
    std::ofstream(stem + ".metrics.jsonl") << metricsJsonl(snapshot);
    return base;
}

TrialResult
runTrial(const ExperimentConfig &config, std::uint64_t trial_seed)
{
    return cellTrial(
        runColocationTrial(TrialRig::scenario(config), trial_seed));
}

std::optional<unsigned>
parseTrialsOverride(const char *text)
{
    if (text == nullptr || *text == '\0')
        return std::nullopt;
    char *end = nullptr;
    const long n = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || n <= 0 ||
        n > static_cast<long>(UINT32_MAX)) {
        return std::nullopt;
    }
    return static_cast<unsigned>(n);
}

namespace
{

std::optional<unsigned> &
trialsOverrideCache()
{
    static std::optional<unsigned> cache =
        parseTrialsOverride(std::getenv("PAGESIM_TRIALS"));
    return cache;
}

} // namespace

unsigned
effectiveTrials(unsigned trials)
{
    return trialsOverrideCache().value_or(trials);
}

void
detail::refreshTrialsOverrideCacheForTests()
{
    trialsOverrideCache() =
        parseTrialsOverride(std::getenv("PAGESIM_TRIALS"));
}

double
TrialResult::faultSkew() const
{
    if (threadBlockedFaults.empty())
        return 0.0;
    double sum = 0.0, mx = 0.0;
    for (const std::uint64_t f : threadBlockedFaults) {
        sum += static_cast<double>(f);
        mx = std::max(mx, static_cast<double>(f));
    }
    const double mean =
        sum / static_cast<double>(threadBlockedFaults.size());
    return mean > 0.0 ? mx / mean : 0.0;
}

Summary
ExperimentResult::runtimeSummary() const
{
    Summary s;
    for (const auto &t : trials)
        s.add(static_cast<double>(t.runtimeNs));
    return s;
}

Summary
ExperimentResult::faultSummary() const
{
    Summary s;
    for (const auto &t : trials)
        s.add(static_cast<double>(t.majorFaults));
    return s;
}

LatencyHistogram
ExperimentResult::mergedReadLatency() const
{
    LatencyHistogram h;
    for (const auto &t : trials)
        h.merge(t.readLatency);
    return h;
}

LatencyHistogram
ExperimentResult::mergedWriteLatency() const
{
    LatencyHistogram h;
    for (const auto &t : trials)
        h.merge(t.writeLatency);
    return h;
}

double
ExperimentResult::meanRequestNs() const
{
    if (trials.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &t : trials)
        sum += t.meanRequestNs;
    return sum / static_cast<double>(trials.size());
}

} // namespace pagesim
