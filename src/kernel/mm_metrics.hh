/**
 * @file
 * Standard metrics wiring for a simulated machine.
 *
 * attachStandardMetrics() connects a MetricsCollector to a built MM
 * stack: attaches the collector to the MemoryManager (fault spans),
 * registers the canonical kernel/swap gauges and event rates on the
 * periodic sampler, and forwards to the policy's registerProbes() hook.
 * The harness and the examples share this wiring so every trial
 * exposes the same probe set (a prerequisite for deterministic
 * snapshots).
 */

#ifndef PAGESIM_KERNEL_MM_METRICS_HH
#define PAGESIM_KERNEL_MM_METRICS_HH

#include <cstdint>
#include <span>

#include "kernel/memory_manager.hh"
#include "metrics/collector.hh"

namespace pagesim
{

/**
 * A kernel event the Full-mode sampler records as column @c probe:
 * each row holds the growth of @c count since the previous row,
 * starting from its value at attach (so row 0 reads 0).
 */
struct EventRate
{
    const char *probe; ///< "mm.<counter>_rate"
    std::uint64_t (*count)(const MemoryManager &mm);
};

/** The event-rate probes attachStandardMetrics registers, in order. */
std::span<const EventRate> eventRates();

/**
 * Wire @p collector into @p mm and its policy/swap stack, and — in
 * Full mode — start the periodic sampler on the simulation's event
 * queue with the collector's configured cadence.
 */
void attachStandardMetrics(MetricsCollector &collector,
                           MemoryManager &mm);

} // namespace pagesim

#endif // PAGESIM_KERNEL_MM_METRICS_HH
