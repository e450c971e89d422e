#include "harness/colocation.hh"

#include <algorithm>

#include "harness/checkpoint.hh"
#include "harness/trial_rig.hh"
#include "sim/serialize.hh"

namespace pagesim
{

std::string
ColocationConfig::label() const
{
    std::string head;
    if (tenants.size() == 1 && tenants[0].name.empty()) {
        head = workloadKindName(tenants[0].workload);
    } else {
        for (const TenantSpec &t : tenants)
            head += (head.empty() ? "" : "+") + t.name;
        head = "colo[" + head + "]";
    }
    return head + "/" + policyKindName(policy) + "/" + swapKindName(swap) +
           "/" + std::to_string(static_cast<int>(capacityRatio * 100)) +
           "%";
}

// Tripwire: a new field changes a size below (unless it fits existing
// padding) and stops the build until encodeConfig or encodeRunFields
// writes it. MetricsConfig::artifactDir is in no key: it never changes
// a result.
static_assert(sizeof(MgLruOverrides) == 80,
              "MgLruOverrides changed: update encodeConfig");
static_assert(sizeof(TenantSpec) == sizeof(std::string) + 40,
              "TenantSpec changed: update encodeConfig");
static_assert(sizeof(MetricsConfig) == sizeof(std::string) + 32,
              "MetricsConfig changed: update encodeRunFields");
static_assert(sizeof(ColocationConfig) ==
                  sizeof(std::vector<TenantSpec>) + sizeof(MetricsConfig) +
                      sizeof(MgLruOverrides) + 56,
              "ColocationConfig changed: update encodeConfig or "
              "encodeRunFields");

void
encodeConfig(const ColocationConfig &config, Sink &sink)
{
    // Every knob value (enum, count, ratio) is exact as a double.
    const auto knob = [&sink](const auto &v) {
        sink.boolean(v.has_value());
        sink.f64(v ? static_cast<double>(*v) : 0.0);
    };
    sink.u32(kCheckpointVersion);
    sink.u32(static_cast<std::uint32_t>(config.policy));
    sink.u32(static_cast<std::uint32_t>(config.swap));
    sink.f64(config.capacityRatio);
    sink.u32(config.numCpus);
    sink.f64(config.slowTierRatio);
    sink.u32(static_cast<std::uint32_t>(config.tenants.size()));
    for (const TenantSpec &t : config.tenants) {
        sink.u32(static_cast<std::uint32_t>(t.name.size()));
        sink.bytes(t.name.data(), t.name.size());
        sink.u32(static_cast<std::uint32_t>(t.workload));
        sink.u32(static_cast<std::uint32_t>(t.scale));
        knob(t.policy);
        sink.f64(t.lowRatio);
        sink.f64(t.highRatio);
        sink.f64(t.maxRatio);
    }
    const MgLruOverrides &mg = config.mglru;
    knob(mg.bloomBits);
    knob(mg.bloomHashes);
    knob(mg.youngDensityThreshold);
    knob(mg.randomScanProb);
    knob(mg.tierProtection);
    knob(mg.pid.kp);
    knob(mg.pid.ki);
}

void
encodeRunFields(const ColocationConfig &config, Sink &sink)
{
    // The metrics mode, cadence and caps decide what a result's
    // metrics hold; an audited run matches an unaudited one only by
    // luck; observers attach at the checkpoint boundary.
    sink.u32(static_cast<std::uint32_t>(config.metrics.mode));
    sink.u64(config.metrics.sampleEvery);
    sink.u64(config.metrics.maxSamples);
    sink.u64(config.metrics.maxSpans);
    sink.u32(effectiveAuditEvery());
    sink.u64(config.checkpointAt);
}

std::uint64_t
configPrefixHash(const ExperimentConfig &config)
{
    return colocationPrefixHash(TrialRig::scenario(config));
}

std::uint64_t
colocationPrefixHash(const ColocationConfig &config)
{
    Sink sink;
    encodeConfig(config, sink);
    return fnv1a(sink.data().data(), sink.size());
}

std::uint64_t
tenantFingerprint(const TenantResult &r)
{
    // FNV-1a over little-endian 64-bit words, the formulation of the
    // TrialResult fingerprints in bit_identity_test.cpp.
    Sink sink;
    sink.u64(r.memcgStats.minorFaults);
    sink.u64(r.memcgStats.majorFaults);
    sink.u64(r.memcgStats.ioWaitFaults);
    sink.u64(r.memcgStats.directReclaims);
    sink.u64(r.memcgStats.evictions);
    sink.u64(r.memcgStats.throttleEvents);
    sink.u64(r.memcgStats.protectedSkips);
    sink.u64(r.memcgStats.peakUsage);
    sink.u64(r.policy.ptesScanned);
    sink.u64(r.policy.regionsVisited);
    sink.u64(r.policy.regionsSkipped);
    sink.u64(r.policy.rmapWalks);
    sink.u64(r.policy.promotions);
    sink.u64(r.policy.demotions);
    sink.u64(r.policy.agingPasses);
    sink.u64(r.policy.evicted);
    sink.u64(r.policy.refaults);
    sink.u64(r.policy.secondChances);
    sink.u64(r.finishNs);
    for (SimTime t : r.threadFinishNs)
        sink.u64(t);
    for (std::uint64_t f : r.threadBlockedFaults)
        sink.u64(f);
    return fnv1a(sink.data().data(), sink.size());
}

ColocationTrialResult
runColocationTrial(const ColocationConfig &config,
                   std::uint64_t trial_seed)
{
    return runRig(config, trial_seed)->collect();
}

TrialResult
cellTrial(ColocationTrialResult trial)
{
    // The run ends when the last thread finishes, so runtimeNs is the
    // machine's sim clock at the end, as a lone workload measures it.
    TenantResult &t = trial.tenants.front();
    TrialResult r;
    r.runtimeNs = trial.runtimeNs - t.measureStartNs;
    r.majorFaults = trial.kernel.majorFaults - t.faultsAtMeasureStart;
    r.kernel = trial.kernel;
    r.policy = t.policy;
    r.swap = trial.swap;
    r.mglru = t.mglru;
    r.readLatency = std::move(t.readLatency);
    r.writeLatency = std::move(t.writeLatency);
    r.threadFinishNs = std::move(t.threadFinishNs);
    r.threadBlockedFaults = std::move(t.threadBlockedFaults);
    r.kswapdCpuNs = trial.kswapdCpuNs;
    r.tier = trial.tier;
    r.meanRequestNs = t.meanRequestNs;
    r.totalTouches = trial.totalTouches;
    r.metrics = std::move(trial.metrics);
    return r;
}

} // namespace pagesim
