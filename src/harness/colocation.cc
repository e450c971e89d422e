#include "harness/colocation.hh"

#include <algorithm>

#include "harness/checkpoint.hh"
#include "harness/sweep.hh"
#include "harness/trial_rig.hh"
#include "sim/parallel.hh"
#include "sim/serialize.hh"

namespace pagesim
{

std::string
ColocationConfig::label() const
{
    std::string names;
    for (const TenantSpec &t : tenants) {
        if (!names.empty())
            names += "+";
        names += t.name;
    }
    return "colo[" + names + "]/" + policyKindName(policy) + "/" +
           swapKindName(swap) + "/" +
           std::to_string(static_cast<int>(capacityRatio * 100)) + "%";
}

// Tripwire: a new field changes a size below (unless it fits existing
// padding) and stops the build until encodeConfig writes it or
// ResultCache::key keys it as run-only. MetricsConfig::artifactDir is
// in no key: it never changes a result.
static_assert(sizeof(MgLruOverrides) == 80,
              "MgLruOverrides changed: update encodeConfig");
static_assert(sizeof(TenantSpec) == sizeof(std::string) + 40,
              "TenantSpec changed: update encodeConfig");
static_assert(sizeof(MetricsConfig) == sizeof(std::string) + 32,
              "MetricsConfig changed: update ResultCache::key");
static_assert(sizeof(ColocationConfig) ==
                  sizeof(std::vector<TenantSpec>) + sizeof(MetricsConfig) +
                      sizeof(MgLruOverrides) + 56,
              "ColocationConfig changed: update encodeConfig or "
              "ResultCache::key");

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
    const std::string label = config.label();
    const std::unique_ptr<ColocationRig> rig =
        runRig(config, trial_seed, label);

    ColocationTrialResult r;
    r.kernel = rig->mm->stats();
    r.swap = rig->device->stats();
    r.kswapdCpuNs = rig->kswapd->cpuWork();
    r.totalTouches = rig->totalRefs();
    for (std::size_t i = 0; i < rig->tenants.size(); ++i) {
        r.tenants.push_back(rig->tenantResult(i));
        r.runtimeNs = std::max(r.runtimeNs, r.tenants.back().finishNs);
    }
    r.metrics = rig->finishMetrics(label);
    return r;
}

ColocationResult
runColocation(const ColocationConfig &config)
{
    // Refuse a bad tenant list here, not inside a pool worker, where
    // the exception could not reach the caller.
    ColocationRig::checkTenants(config);
    ColocationResult result;
    result.config = config;
    result.trials.resize(effectiveTrials(config.trials));
    // Each trial writes only its own pre-sized slot, so results are
    // independent of claim order and of the worker count.
    parallelMap(hostWorkers(), result.trials,
                [&](std::size_t t, ColocationTrialResult &slot) {
                    slot = runColocationTrial(
                        config, trialSeed(config.baseSeed,
                                          static_cast<unsigned>(t)));
                });
    return result;
}

} // namespace pagesim
