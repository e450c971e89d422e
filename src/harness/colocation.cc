#include "harness/colocation.hh"

#include <algorithm>

#include "harness/checkpoint.hh"
#include "harness/trial_rig.hh"
#include "sim/parallel.hh"

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

std::uint64_t
tenantFingerprint(const TenantResult &r)
{
    // FNV-1a over 64-bit words, same formulation as the TrialResult
    // fingerprints in bit_identity_test.cpp.
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto add = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    add(r.memcgStats.minorFaults);
    add(r.memcgStats.majorFaults);
    add(r.memcgStats.ioWaitFaults);
    add(r.memcgStats.directReclaims);
    add(r.memcgStats.evictions);
    add(r.memcgStats.throttleEvents);
    add(r.memcgStats.protectedSkips);
    add(r.memcgStats.peakUsage);
    add(r.policy.ptesScanned);
    add(r.policy.regionsVisited);
    add(r.policy.regionsSkipped);
    add(r.policy.rmapWalks);
    add(r.policy.promotions);
    add(r.policy.demotions);
    add(r.policy.agingPasses);
    add(r.policy.evicted);
    add(r.policy.refaults);
    add(r.policy.secondChances);
    add(r.finishNs);
    for (SimTime t : r.threadFinishNs)
        add(t);
    for (std::uint64_t f : r.threadBlockedFaults)
        add(f);
    return h;
}

ColocationTrialResult
runColocationTrial(const ColocationConfig &config,
                   std::uint64_t trial_seed)
{
    const std::string label = config.label();
    const std::unique_ptr<ColocationRig> rig = runRig(
        config, trial_seed, colocationPrefixHash(config), label);

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
    parallelFor(hostWorkers(), result.trials.size(), [&](std::size_t t) {
        // Same seed derivation as trialSeed() in sweep.cc.
        result.trials[t] = runColocationTrial(
            config, config.baseSeed + 1000003ull * t);
    });
    return result;
}

} // namespace pagesim
