#include "kernel/mm_metrics.hh"

#include "swap/zram_device.hh"

namespace pagesim
{

namespace
{

template <std::uint64_t FaultStats::*Counter>
std::uint64_t
faultCount(const MemoryManager &mm)
{
    return mm.stats().*Counter;
}

template <std::uint64_t TierStats::*Counter>
std::uint64_t
tierCount(const MemoryManager &mm)
{
    return mm.tierStats().*Counter;
}

const EventRate kEventRates[] = {
    {"mm.major_fault_rate", faultCount<&FaultStats::majorFaults>},
    {"mm.minor_fault_rate", faultCount<&FaultStats::minorFaults>},
    {"mm.io_wait_fault_rate", faultCount<&FaultStats::ioWaitFaults>},
    {"mm.eviction_rate", faultCount<&FaultStats::evictions>},
    {"mm.dirty_writeback_rate", faultCount<&FaultStats::dirtyWritebacks>},
    {"mm.writeback_remap_rate", faultCount<&FaultStats::writebackRemaps>},
    {"mm.readahead_read_rate", faultCount<&FaultStats::readaheadReads>},
    {"mm.readahead_hit_rate", faultCount<&FaultStats::readaheadHits>},
    {"mm.direct_reclaim_rate", faultCount<&FaultStats::directReclaims>},
    {"mm.direct_aging_rate", faultCount<&FaultStats::directAging>},
    {"mm.alloc_stall_rate", faultCount<&FaultStats::allocStalls>},
    {"mm.demotion_rate", tierCount<&TierStats::demotions>},
    {"mm.promotion_rate", tierCount<&TierStats::promotions>},
};

} // namespace

std::span<const EventRate>
eventRates()
{
    return kEventRates;
}

void
attachStandardMetrics(MetricsCollector &collector, MemoryManager &mm)
{
    mm.attachMetrics(&collector);
    if (!collector.config().sampling())
        return;

    PeriodicSampler &sampler = collector.sampler();

    // Kernel-level probes (pure state reads; see sampler.hh on why
    // sampling cannot perturb results).
    sampler.probe("mm.free_frames", [&mm] {
        return static_cast<double>(mm.frames().freeFrames());
    });
    sampler.probe("mm.alloc_stall_depth", [&mm] {
        return static_cast<double>(mm.frameWaiterCount());
    });
    sampler.probe("mm.writebacks_in_flight", [&mm] {
        return static_cast<double>(mm.writebacksInFlight());
    });
    sampler.probe("mm.swapins_in_flight", [&mm] {
        return static_cast<double>(mm.swapInsInFlight());
    });
    for (const EventRate &rate : kEventRates) {
        sampler.probe(rate.probe, [&mm, count = rate.count,
                                   prev = rate.count(mm)]() mutable {
            const std::uint64_t cur = count(mm);
            const std::uint64_t d = cur - prev;
            prev = cur;
            return static_cast<double>(d);
        });
    }

    // Swap-area probes.
    const SwapManager &swap = mm.swap();
    sampler.probe("swap.used_slots", [&swap] {
        return static_cast<double>(swap.usedSlots());
    });
    if (const auto *zram =
            dynamic_cast<const ZramSwapDevice *>(&mm.swap().device())) {
        sampler.probe("zram.pool_bytes", [zram] {
            return static_cast<double>(zram->poolBytes());
        });
    }

    // Policy internals (MG-LRU generations/tiers, Clock lists, ...),
    // one lruvec at a time. A single root memcg keeps the historical
    // unprefixed probe names; multi-tenant setups scope each group's
    // probes as "memcg.<name>.*" and add a usage gauge per group.
    // (The pre-memcg version registered mm.policy() only — the root
    // lruvec — leaving every other tenant's policy unsampled.)
    if (mm.memcgCount() == 1) {
        mm.policy().registerProbes(sampler);
    } else {
        for (MemcgId id = 0; id < mm.memcgCount(); ++id) {
            Memcg &m = mm.memcg(id);
            sampler.setPrefix("memcg." + m.name() + ".");
            sampler.probe("usage", [&m] {
                return static_cast<double>(m.usage());
            });
            m.policy().registerProbes(sampler);
        }
        sampler.setPrefix("");
    }

    sampler.start(mm.sim().events(), collector.config().sampleEvery,
                  collector.config().maxSamples);
}

} // namespace pagesim
