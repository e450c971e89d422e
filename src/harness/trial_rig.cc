#include "harness/trial_rig.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "kernel/mm_metrics.hh"
#include "kv/ycsb_workload.hh"
#include "sim/serialize.hh"
#include "swap/ssd_device.hh"
#include "swap/zram_device.hh"

namespace pagesim
{

namespace
{

/** Watermark in frames from a footprint-relative ratio (0 = off). */
std::uint32_t
ratioFrames(double ratio, std::uint64_t footprint, std::uint32_t off)
{
    if (ratio <= 0.0)
        return off;
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(static_cast<double>(footprint) *
                                      ratio));
}

/** Replace every knob of @p mg that @p o sets. */
void
applyOverrides(const MgLruOverrides &o, MgLruConfig &mg)
{
    const auto set = [](auto &knob, const auto &v) { knob = v.value_or(knob); };
    set(mg.bloomBits, o.bloomBits);
    set(mg.bloomHashes, o.bloomHashes);
    set(mg.youngDensityThreshold, o.youngDensityThreshold);
    set(mg.randomScanProb, o.randomScanProb);
    set(mg.tierProtection, o.tierProtection);
    set(mg.pid.kp, o.pid.kp);
    set(mg.pid.ki, o.pid.ki);
}

/** An RNG stream name scoped to tenant @p name ("" = unscoped). */
std::string
streamName(const char *stream, const std::string &name)
{
    return name.empty() ? std::string(stream)
                        : std::string(stream) + "-" + name;
}

} // namespace

const ColocationConfig &
ColocationRig::checkTenants(const ColocationConfig &config)
{
    const std::vector<TenantSpec> &tenants = config.tenants;
    if (tenants.empty())
        throw std::invalid_argument("colocation: no tenants");
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        if (tenants[i].name.empty() && tenants.size() > 1) {
            throw std::invalid_argument(
                "colocation: tenant " + std::to_string(i) +
                " has no name beside other tenants");
        }
        for (std::size_t j = 0; j < i; ++j) {
            if (tenants[j].name == tenants[i].name) {
                throw std::invalid_argument(
                    "colocation: duplicate tenant name: " +
                    tenants[i].name);
            }
        }
    }
    return config;
}

ColocationRig::ColocationRig(const ColocationConfig &config,
                             std::uint64_t trial_seed,
                             const TrialRigOptions &opts)
    : config(checkTenants(config)), trialSeed(trial_seed),
      sim(config.numCpus, trial_seed), tenants(config.tenants.size())
{
    // --- Assemble one shared machine (= one boot). A restore rig
    // replays this sequence with the same seed, so every RNG fork and
    // derived parameter lands identically. ---------------------------
    for (std::size_t i = 0; i < config.tenants.size(); ++i) {
        const TenantSpec &spec = config.tenants[i];
        Tenant &t = tenants[i];
        t.workload = makeWorkload(spec.workload, spec.scale);
        t.footprint = t.workload->footprintPages();
        totalFootprint += t.footprint;
        t.space =
            std::make_unique<AddressSpace>(static_cast<uint32_t>(i));
        t.space->setMemcg(static_cast<MemcgId>(i));
        // Per-boot, per-tenant layout randomization (the paper reboots
        // per trial). Mixing the tenant index in keeps every tenant's
        // layout independent while the i == 0 stream matches the
        // historical single-workload harness.
        t.space->enableAslr(splitmix64(trial_seed ^ 0xa51a51a5ull ^
                                       (0x9e3779b97f4a7c15ull * i)));
    }

    mmConfig.totalFrames = static_cast<std::uint32_t>(
        static_cast<double>(totalFootprint) * config.capacityRatio);
    // Cgroup-style capacity enforcement (the paper caps per-workload
    // memory): at the limit, reclaim happens in the faulting task;
    // the global kswapd only steps in as an emergency backstop, below
    // the direct-reclaim threshold (global memory isn't under
    // pressure when a cgroup hits its own limit).
    mmConfig.directReclaimBelow = std::max<std::uint32_t>(
        mmConfig.reclaimBatch, mmConfig.totalFrames / 256);
    mmConfig.lowWatermark = mmConfig.directReclaimBelow / 2;
    mmConfig.highWatermark = mmConfig.directReclaimBelow;
    mmConfig.swapSlots =
        static_cast<std::uint32_t>(totalFootprint * 2 + 4096);
    if (config.swap == SwapKind::Zram)
        mmConfig.readaheadPages = 1; // page-cluster=0 for zram
    if (config.slowTierRatio > 0.0) {
        mmConfig.tier.slowFrames = static_cast<std::uint32_t>(
            static_cast<double>(totalFootprint) * config.slowTierRatio);
    }

    frames = std::make_unique<FrameTable>(mmConfig.totalFrames);

    if (config.swap == SwapKind::Ssd) {
        device = std::make_unique<SsdSwapDevice>(sim.events(),
                                                 sim.forkRng("ssd"));
    } else {
        device = std::make_unique<ZramSwapDevice>();
    }
    swap = std::make_unique<SwapManager>(*device, mmConfig.swapSlots);

    // One lruvec per tenant: each policy instance sees only its own
    // tenant's space. Watermarks are fractions of the tenant's own
    // footprint; with none set, a lone tenant's group is the unlimited
    // root group of the legacy single-policy MemoryManager ctor.
    const std::uint32_t frames_total = mmConfig.totalFrames;
    std::vector<MemcgSpec> specs;
    for (std::size_t i = 0; i < config.tenants.size(); ++i) {
        const TenantSpec &spec = config.tenants[i];
        Tenant &t = tenants[i];
        t.policy = makePolicy(
            spec.policy.value_or(config.policy), *frames,
            {t.space.get()}, mmConfig.costs,
            sim.forkRng(streamName("policy", spec.name)),
            [frames_total, &config](MgLruConfig &mg) {
                // Aging urgency scales with capacity: keep at least 1/8
                // of memory outside the youngest generation, and make
                // each generation represent ~1/16 of memory's worth of
                // reclaim.
                mg.agingLowPages =
                    std::max<std::uint64_t>(frames_total / 8, 256);
                mg.agingEvictGate =
                    std::max<std::uint64_t>(frames_total / 16, 64);
                applyOverrides(config.mglru, mg);
            },
            &sim.events());

        MemcgSpec ms;
        ms.config.name = spec.name;
        ms.config.low = ratioFrames(spec.lowRatio, t.footprint, 0);
        ms.config.high = ratioFrames(spec.highRatio, t.footprint,
                                     MemcgConfig::kNoLimit);
        ms.config.max = ratioFrames(spec.maxRatio, t.footprint,
                                    MemcgConfig::kNoLimit);
        ms.policy = t.policy.get();
        specs.push_back(std::move(ms));
    }

    if (const unsigned every = effectiveAuditEvery())
        mmConfig.auditEvery = every;

    mm = std::make_unique<MemoryManager>(sim, *frames, *swap, specs,
                                         mmConfig);

    // Observability: the plain path attaches before any fault can
    // happen so spans and the t=0 sample cover the whole trial (and so
    // its event sequence stays byte-identical to the historical
    // harness). Deferred paths attach at the checkpoint boundary.
    metricsConfig = effectiveMetricsConfig(config.metrics);
    if (!opts.deferObservers)
        installObservers();

    kswapd = std::make_unique<Kswapd>(sim, *mm);
    mm->attachKswapd(kswapd.get());
    if (!opts.forRestore)
        kswapd->start();

    // MG-LRU aging runs in reclaim contexts (try_to_inc_max_seq has
    // no kthread of its own); under the cgroup-style limit those
    // contexts are the faulting tasks. The AgingDaemon class remains
    // available for configurations that want a dedicated walker
    // (see examples/tuning_walks).

    // The rest of the OS: per-boot background memory/CPU bursts.
    noise = std::make_unique<BackgroundNoise>(sim, *mm,
                                              sim.forkRng("noise"));
    if (!opts.forRestore)
        noise->start();

    // Build every tenant and start its threads. The per-tenant env
    // seed mixes in the tenant index like the ASLR seed; the jitter
    // stream forks off the tenant name like the policy stream.
    threads.resize(tenants.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        Tenant &t = tenants[i];
        WorkloadContext ctx;
        ctx.mm = mm.get();
        ctx.space = t.space.get();
        ctx.envSeed = splitmix64(trial_seed ^ 0xecedeul ^
                                 (0x9e3779b97f4a7c15ull * i));
        t.workload->build(ctx);

        Rng jitter = sim.forkRng(
            streamName("thread-start", config.tenants[i].name));
        for (unsigned tid = 0; tid < t.workload->numThreads(); ++tid) {
            threads[i].push_back(std::make_unique<WorkThread>(
                sim, *mm, *t.workload, *t.space, tid));
            // Per-boot scheduling jitter in thread start order. The
            // jitter stream is drawn even on a restore build (where no
            // thread starts) to keep the construction-time RNG usage
            // identical.
            const SimDuration delay = jitter.uniformInt(0, 20000);
            if (!opts.forRestore)
                threads[i].back()->start(delay);
        }
    }
}

std::uint64_t
ColocationRig::totalRefs() const
{
    std::uint64_t refs = 0;
    for (const auto &tenant : threads)
        for (const auto &t : tenant)
            refs += t->threadStats().touches;
    return refs;
}

void
ColocationRig::installObservers()
{
    if (observersInstalled_)
        return;
    observersInstalled_ = true;
    if (mmConfig.auditEvery > 0) {
        std::vector<const AddressSpace *> audit_spaces;
        for (const Tenant &t : tenants)
            audit_spaces.push_back(t.space.get());
        auditor = std::make_unique<MmAuditor>(*mm, audit_spaces);
        auditor->installPeriodic(/*hard_fail=*/true);
    }
    if (metricsConfig.enabled()) {
        collector = std::make_unique<MetricsCollector>(metricsConfig);
        attachStandardMetrics(*collector, *mm);
    }
}

RigView
ColocationRig::view()
{
    RigView v;
    v.sim = &sim;
    v.mm = mm.get();
    v.frames = frames.get();
    v.swap = swap.get();
    for (Tenant &t : tenants) {
        v.spaces.push_back(t.space.get());
        v.workloads.push_back(t.workload.get());
    }
    v.actors.push_back(kswapd.get());
    v.actors.push_back(noise.get());
    for (const auto &tenant : threads)
        for (const auto &t : tenant)
            v.actors.push_back(t.get());
    return v;
}

bool
ColocationRig::runToBoundary(std::uint64_t target_refs,
                             std::uint64_t max_events,
                             std::uint64_t &events_used)
{
    while (sim.foregroundRunning() > 0 && events_used < max_events) {
        if (totalRefs() >= target_refs && mm->quiescentForCheckpoint())
            return true;
        if (!sim.events().runOne())
            return false;
        ++events_used;
    }
    return false;
}

ColocationTrialResult
ColocationRig::collect()
{
    ColocationTrialResult r;
    r.kernel = mm->stats();
    r.swap = device->stats();
    r.tier = mm->tierStats();
    r.kswapdCpuNs = kswapd->cpuWork();
    r.totalTouches = totalRefs();
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        TenantResult &tr = r.tenants.emplace_back();
        tr.name = config.tenants[i].name;
        tr.memcgStats = mm->memcg(static_cast<MemcgId>(i)).stats();
        const ReplacementPolicy *policy = tenants[i].policy.get();
        tr.policy = policy->stats();
        if (const auto *mg = dynamic_cast<const MgLruPolicy *>(policy))
            tr.mglru = mg->mgStats();
        for (const auto &th : threads[i]) {
            tr.threadFinishNs.push_back(th->threadStats().finishTime);
            tr.threadBlockedFaults.push_back(th->threadStats().blockedFaults);
            tr.finishNs = std::max(tr.finishNs, th->threadStats().finishTime);
        }
        r.runtimeNs = std::max(r.runtimeNs, tr.finishNs);
        const auto *ycsb =
            dynamic_cast<const YcsbWorkload *>(tenants[i].workload.get());
        if (ycsb == nullptr)
            continue;
        tr.readLatency = ycsb->readLatency();
        tr.writeLatency = ycsb->writeLatency();
        const std::uint64_t nreq =
            tr.readLatency.count() + tr.writeLatency.count();
        if (nreq > 0) {
            tr.meanRequestNs =
                (tr.readLatency.mean() * tr.readLatency.count() +
                 tr.writeLatency.mean() * tr.writeLatency.count()) /
                static_cast<double>(nreq);
        }
        tr.measureStartNs = ycsb->measureStart();
        tr.faultsAtMeasureStart = ycsb->faultsAtMeasureStart();
    }

    if (!collector)
        return r;
    collector->sampler().stop();
    r.metrics = collector->snapshot(sim.now());
    // One machine-wide artifact set per trial; per-tenant timeseries
    // live inside it as "memcg.<name>.*" columns. The label rounds
    // capacity and omits MG-LRU overrides, so a hash of the machine
    // and of the result-changing run-only fields tells cells apart;
    // the trial seed names the trial.
    if (!metricsConfig.artifactDir.empty()) {
        Sink sink;
        encodeConfig(config, sink);
        encodeRunFields(config, sink);
        char hash[17];
        std::snprintf(hash, sizeof(hash), "%016llx",
                      static_cast<unsigned long long>(
                          fnv1a(sink.data().data(), sink.size())));
        writeTrialArtifacts(metricsConfig.artifactDir,
                            config.label() + "-" + hash, trialSeed,
                            r.metrics);
    }
    return r;
}

TrialRig::TrialRig(const ExperimentConfig &config,
                   std::uint64_t trial_seed, const TrialRigOptions &opts)
    : ColocationRig(scenario(config), trial_seed, opts),
      workload(tenants[0].workload), policy(tenants[0].policy),
      threads(ColocationRig::threads[0])
{
}

// Tripwire: a new ExperimentConfig field stops the build here until
// scenario() maps it (encodeConfig and the ResultCache key read the map).
static_assert(sizeof(ExperimentConfig) ==
                  sizeof(MgLruOverrides) + sizeof(MetricsConfig) + 88,
              "ExperimentConfig changed: update TrialRig::scenario");

ColocationConfig
TrialRig::scenario(const ExperimentConfig &config)
{
    return {.tenants = {{.name = "",
                         .workload = config.workload,
                         .scale = config.scale,
                         .policy = std::nullopt,
                         .lowRatio = config.memcgLowRatio,
                         .highRatio = config.memcgHighRatio,
                         .maxRatio = config.memcgMaxRatio}},
            .policy = config.policy,
            .swap = config.swap,
            .capacityRatio = config.capacityRatio,
            .trials = config.trials,
            .baseSeed = config.baseSeed,
            .numCpus = config.numCpus,
            .slowTierRatio = config.slowTierRatio,
            .mglru = config.mglru,
            .metrics = config.metrics,
            .checkpointAt = config.checkpointAt};
}

namespace
{

constexpr std::uint64_t kMaxEvents = 2000000000ull;

/** runRig's fast-forward to config.checkpointAt (> 0); see runRig. */
std::unique_ptr<ColocationRig>
buildAtBoundary(const ColocationConfig &config, std::uint64_t trial_seed,
                std::uint64_t &events_used)
{
    const std::uint64_t boundary = config.checkpointAt;
    const std::uint64_t prefix_hash = colocationPrefixHash(config);
    if (auto ckpt = CheckpointCache::instance().find(prefix_hash, trial_seed,
                                                     boundary)) {
        TrialRigOptions opts;
        opts.forRestore = true;
        opts.deferObservers = true;
        auto rig = std::make_unique<ColocationRig>(config, trial_seed, opts);
        const CheckpointError err = restoreCheckpoint(
            rig->view(), prefix_hash, trial_seed, *ckpt);
        if (err.ok()) {
            rig->installObservers();
            return rig;
        }
        // A failed apply can leave partial state behind; the rig is
        // discarded wholesale and the trial re-simulated cold.
        std::fprintf(stderr,
                     "pagesim: checkpoint restore failed (%s: %s); "
                     "re-simulating\n",
                     checkpointErrorKindName(err.kind), err.message.c_str());
    }

    TrialRigOptions opts;
    opts.deferObservers = true;
    auto rig = std::make_unique<ColocationRig>(config, trial_seed, opts);
    if (rig->runToBoundary(boundary, kMaxEvents, events_used)) {
        auto ckpt = std::make_shared<Checkpoint>();
        if (captureCheckpoint(rig->view(), prefix_hash, trial_seed,
                              boundary, *ckpt)
                .ok()) {
            CheckpointCache::instance().insert(std::move(ckpt));
        }
    }
    rig->installObservers();
    return rig;
}

} // namespace

std::unique_ptr<ColocationRig>
runRig(const ColocationConfig &config, std::uint64_t trial_seed)
{
    std::uint64_t events_used = 0;
    std::unique_ptr<ColocationRig> rig =
        config.checkpointAt == 0
            ? std::make_unique<ColocationRig>(config, trial_seed,
                                              TrialRigOptions{})
            : buildAtBoundary(config, trial_seed, events_used);
    if (!rig->sim.runToCompletion(kMaxEvents - events_used)) {
        std::fprintf(stderr,
                     "pagesim: trial %s seed %llu did not converge\n",
                     config.label().c_str(),
                     static_cast<unsigned long long>(trial_seed));
        std::abort();
    }
    return rig;
}

} // namespace pagesim
