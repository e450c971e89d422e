/**
 * @file
 * MetricsCollector: the one object a trial attaches to get the whole
 * observability stack — registry, fault-span recorder, periodic
 * sampler, and actor track names — plus a MetricsSnapshot that freezes
 * everything for export.
 *
 * Modes:
 *  - Off       no collector is created; every instrumentation site in
 *              the kernel is behind a null-pointer test (strictly zero
 *              cost beyond that test);
 *  - Counters  registry + fault spans, no periodic sampler;
 *  - Full      everything, including the timeseries sampler.
 */

#ifndef PAGESIM_METRICS_COLLECTOR_HH
#define PAGESIM_METRICS_COLLECTOR_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "metrics/fault_spans.hh"
#include "metrics/registry.hh"
#include "metrics/sampler.hh"
#include "sim/actor.hh"
#include "sim/types.hh"

namespace pagesim
{

enum class MetricsMode : std::uint8_t
{
    Off,
    Counters,
    Full,
};

const char *metricsModeName(MetricsMode mode);

/** Opt-in metrics knobs, carried by ExperimentConfig. */
struct MetricsConfig
{
    MetricsMode mode = MetricsMode::Off;
    /**
     * Sampler cadence (Full mode). 25 ms keeps a multi-second trial
     * at ~100+ rows while holding the sampler's share of trial cost
     * well under the perf_core overhead budget; dense phase studies
     * can lower it per-config.
     */
    SimDuration sampleEvery = msecs(25);
    /** Timeseries row cap. */
    std::size_t maxSamples = 1u << 14;
    /** Individual spans retained for export (aggregation never drops). */
    std::size_t maxSpans = 1u << 16;
    /**
     * When non-empty, every trial writes its artifact files
     * (<label>-<hash>-seed<N>.trace.json / .timeseries.csv /
     * .metrics.jsonl) under this directory.
     */
    std::string artifactDir;

    bool enabled() const { return mode != MetricsMode::Off; }
    bool sampling() const { return mode == MetricsMode::Full; }
};

/** Frozen end-of-trial copy of everything the collector gathered. */
struct MetricsSnapshot
{
    std::vector<std::string> counterNames;
    std::vector<std::uint64_t> counterValues;
    std::vector<std::string> gaugeNames;
    std::vector<double> gaugeValues;
    std::vector<std::string> histogramNames;
    std::vector<LatencyHistogram> histograms;

    std::vector<FaultSpan> spans;
    std::uint64_t spansDropped = 0;
    std::vector<InstantEvent> instants;
    std::uint64_t instantsDropped = 0;

    SampleSeries timeseries;

    /** trackNames[tid] labels span/instant track ids (actor names). */
    std::vector<std::string> trackNames;

    SimTime capturedAt = 0;

    bool empty() const
    {
        return counterNames.empty() && histogramNames.empty() &&
               spans.empty() && timeseries.empty();
    }
};

/** Registry + spans + sampler + track names for one trial. */
class MetricsCollector
{
  public:
    explicit MetricsCollector(const MetricsConfig &config);

    const MetricsConfig &config() const { return config_; }

    MetricsRegistry &registry() { return registry_; }
    FaultSpanRecorder &spans() { return spans_; }
    PeriodicSampler &sampler() { return sampler_; }

    /**
     * Register an actor name; returns the track id used by spans and
     * the Chrome trace exporter ("tid"). Track 0 is pre-registered as
     * "kernel" for unattributed events.
     */
    std::uint32_t track(const std::string &name);

    /**
     * Memoized track lookup keyed by object identity (e.g. a SimActor
     * address): registers @p name on first sight, then returns the
     * same id without string work.
     */
    std::uint32_t trackFor(const void *key, const std::string &name);

    /**
     * Fault-path variant: resolves through the actor's inline cache
     * slot, so repeat lookups are a pointer compare instead of a hash
     * probe (faults resolve tracks hundreds of thousands of times per
     * trial).
     */
    std::uint32_t
    trackFor(const SimActor &actor)
    {
        SimActor::TrackCacheSlot &slot = actor.metricsTrackCache();
        if (slot.owner != this) {
            slot.owner = this;
            slot.id = trackFor(static_cast<const void *>(&actor),
                               actor.name());
        }
        return slot.id;
    }

    /** Freeze all gathered state (deterministic field order). */
    MetricsSnapshot snapshot(SimTime now) const;

  private:
    MetricsConfig config_;
    MetricsRegistry registry_;
    FaultSpanRecorder spans_;
    PeriodicSampler sampler_;
    std::vector<std::string> trackNames_;
    std::unordered_map<const void *, std::uint32_t> trackIndex_;
};

} // namespace pagesim

#endif // PAGESIM_METRICS_COLLECTOR_HH
