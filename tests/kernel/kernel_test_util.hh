/**
 * @file
 * Kernel-layer test fixture: a full machine (sim + frames + swap +
 * policy + MM) with a scriptable probe actor for driving accesses.
 */

#ifndef PAGESIM_TESTS_KERNEL_TEST_UTIL_HH
#define PAGESIM_TESTS_KERNEL_TEST_UTIL_HH

#include <functional>
#include <memory>

#include "check/mm_audit.hh"
#include "kernel/aging_daemon.hh"
#include "kernel/kswapd.hh"
#include "kernel/memory_manager.hh"
#include "policy/policy_factory.hh"
#include "sim/simulation.hh"
#include "swap/ssd_device.hh"
#include "swap/swap_manager.hh"
#include "swap/zram_device.hh"

namespace pagesim
{

/** An actor whose step() runs a user-provided script. */
class ProbeActor : public SimActor
{
  public:
    using Script = std::function<void(ProbeActor &)>;

    ProbeActor(Simulation &sim, Script script)
        : SimActor(sim, "probe", true), script_(std::move(script))
    {
    }

    using SimActor::block;
    using SimActor::finish;
    using SimActor::yieldAfter;

  protected:
    void step() override { script_(*this); }

  private:
    Script script_;
};

/** A machine with pluggable swap and policy for kernel tests. */
struct KernelHarness
{
    Simulation sim;
    FrameTable frames;
    AddressSpace space;
    std::unique_ptr<SwapDevice> device;
    std::unique_ptr<SwapManager> swap;
    std::unique_ptr<ReplacementPolicy> policy;
    MmConfig config;
    std::unique_ptr<MemoryManager> mm;
    std::unique_ptr<MmAuditor> auditor;

    explicit
    KernelHarness(std::uint32_t nframes = 64,
                  std::uint64_t vma_pages = 256,
                  bool zram = false,
                  PolicyKind kind = PolicyKind::MgLru)
        : sim(4, 7), frames(nframes), space(0)
    {
        space.map("test", vma_pages);
        if (zram) {
            device = std::make_unique<ZramSwapDevice>();
        } else {
            SsdConfig ssd;
            ssd.jitterSigma = 0.0;
            device = std::make_unique<SsdSwapDevice>(
                sim.events(), sim.forkRng("ssd"), ssd);
        }
        swap = std::make_unique<SwapManager>(*device, 4096);
        config.totalFrames = nframes;
        config.deriveWatermarks();
        // Kernel tests run with the invariant auditor on every reclaim
        // batch, aborting on the first violation.
        config.auditEvery = 1;
        policy = makePolicy(kind, frames, {&space}, config.costs,
                            sim.forkRng("policy"), {}, &sim.events());
        mm = std::make_unique<MemoryManager>(
            sim, frames, *swap,
            std::vector<MemcgSpec>{{MemcgConfig{}, policy.get()}},
            config);
        auditor = std::make_unique<MmAuditor>(
            *mm, std::vector<const AddressSpace *>{&space});
        auditor->installPeriodic(/*hard_fail=*/true);
    }

    Vpn base() const { return space.vmas().front().start; }
};

/**
 * A machine with N memcgs (one address space + policy instance each)
 * for multi-tenant kernel tests. Tenant i's space has id i and is
 * assigned to memcg i before any fault.
 */
struct MultiKernelHarness
{
    /** One tenant's watermarks + policy kind. */
    struct TenantSetup
    {
        MemcgConfig config;
        PolicyKind kind = PolicyKind::MgLru;
        std::uint64_t vmaPages = 256;
    };

    Simulation sim;
    FrameTable frames;
    std::vector<std::unique_ptr<AddressSpace>> spaces;
    std::unique_ptr<SwapDevice> device;
    std::unique_ptr<SwapManager> swap;
    std::vector<std::unique_ptr<ReplacementPolicy>> policies;
    MmConfig config;
    std::unique_ptr<MemoryManager> mm;
    std::unique_ptr<MmAuditor> auditor;

    explicit
    MultiKernelHarness(const std::vector<TenantSetup> &tenants,
                       std::uint32_t nframes = 64)
        : sim(4, 7), frames(nframes)
    {
        SsdConfig ssd;
        ssd.jitterSigma = 0.0;
        device = std::make_unique<SsdSwapDevice>(
            sim.events(), sim.forkRng("ssd"), ssd);
        swap = std::make_unique<SwapManager>(*device, 4096);
        config.totalFrames = nframes;
        config.deriveWatermarks();
        config.auditEvery = 1;

        std::vector<MemcgSpec> specs;
        for (std::size_t i = 0; i < tenants.size(); ++i) {
            auto sp = std::make_unique<AddressSpace>(
                static_cast<std::uint32_t>(i));
            sp->map("tenant", tenants[i].vmaPages);
            sp->setMemcg(static_cast<MemcgId>(i));
            policies.push_back(makePolicy(
                tenants[i].kind, frames, {sp.get()}, config.costs,
                sim.forkRng("policy-" + tenants[i].config.name), {},
                &sim.events()));
            MemcgSpec spec;
            spec.config = tenants[i].config;
            spec.policy = policies.back().get();
            specs.push_back(std::move(spec));
            spaces.push_back(std::move(sp));
        }
        mm = std::make_unique<MemoryManager>(sim, frames, *swap, specs,
                                             config);
        std::vector<const AddressSpace *> audit_spaces;
        for (const auto &sp : spaces)
            audit_spaces.push_back(sp.get());
        auditor = std::make_unique<MmAuditor>(*mm, audit_spaces);
        auditor->installPeriodic(/*hard_fail=*/true);
    }

    Vpn
    base(std::size_t tenant) const
    {
        return spaces[tenant]->vmas().front().start;
    }
};

} // namespace pagesim

#endif // PAGESIM_TESTS_KERNEL_TEST_UTIL_HH
