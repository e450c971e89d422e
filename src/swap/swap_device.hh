/**
 * @file
 * Swap device interface.
 *
 * Two device families matter for the paper:
 *
 *  - block-style devices (SSD): asynchronous, queued; callers block
 *    while an I/O is in flight. Modeled by submit() + completion
 *    callback.
 *  - ZRAM: synchronous (de)compression on the *caller's* CPU. There is
 *    no device-side queue; the cost is CPU work, which matters because
 *    it contends with application threads. Modeled by cpuCost().
 *
 * A device reports which model it uses via synchronous().
 */

#ifndef PAGESIM_SWAP_SWAP_DEVICE_HH
#define PAGESIM_SWAP_SWAP_DEVICE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "mem/types.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

namespace pagesim
{

/** Operation counters every device maintains. */
struct SwapDeviceStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** Sum of (completion - submit) over all ops, for mean latency. */
    SimDuration totalReadLatency = 0;
    SimDuration totalWriteLatency = 0;
    /** Peak number of requests queued behind the device. */
    std::uint64_t peakQueueDepth = 0;

    double
    meanReadLatency() const
    {
        return reads ? static_cast<double>(totalReadLatency) / reads : 0;
    }

    double
    meanWriteLatency() const
    {
        return writes ? static_cast<double>(totalWriteLatency) / writes
                      : 0;
    }
};

/** Abstract 4 KB-page swap device. */
class SwapDevice
{
  public:
    using Callback = std::function<void()>;

    virtual ~SwapDevice() = default;

    /** Debug/report name ("ssd", "zram"). */
    virtual const std::string &name() const = 0;

    /** True if ops are synchronous CPU work on the caller. */
    virtual bool synchronous() const = 0;

    /**
     * Asynchronous submit (only when !synchronous()). @p cb runs at
     * completion time, in event context.
     */
    virtual void submit(SwapSlot slot, bool is_write, Callback cb) = 0;

    /**
     * CPU cost of a synchronous op (only when synchronous()); the
     * caller charges this as actor CPU work. @p slot lets compression
     * models vary cost by content.
     */
    virtual SimDuration cpuCost(SwapSlot slot, bool is_write) const = 0;

    /** Notify a synchronous device that an op completed (bookkeeping). */
    virtual void noteSyncOp(SwapSlot slot, bool is_write) = 0;

    const SwapDeviceStats &stats() const { return stats_; }

    /**
     * Decomposition of the most recently completed async op's
     * [submit, completion] interval: time queued behind the device vs.
     * time in service. Valid inside a submit() completion callback —
     * the device updates both immediately before invoking it — which
     * is exactly where latency-attribution instrumentation reads them.
     * Synchronous devices leave them 0.
     */
    SimDuration lastOpQueueWait() const { return lastQueueWait_; }
    SimDuration lastOpService() const { return lastService_; }

    /**
     * True when the device holds no in-flight or queued work whose
     * completion callbacks would be lost by a checkpoint. Synchronous
     * devices are always quiescent; queued devices override.
     */
    virtual bool quiescent() const { return true; }

    /**
     * Checkpoint the device state. The base captures the op counters;
     * subclasses append their own fields after calling the base. Only
     * valid at a quiescent() point — completion callbacks cannot be
     * serialized.
     */
    virtual void
    visitState(StateIO &io)
    {
        io.u64(stats_.reads);
        io.u64(stats_.writes);
        io.u64(stats_.totalReadLatency);
        io.u64(stats_.totalWriteLatency);
        io.u64(stats_.peakQueueDepth);
        io.u64(lastQueueWait_);
        io.u64(lastService_);
    }

  protected:
    SwapDeviceStats stats_;
    SimDuration lastQueueWait_ = 0;
    SimDuration lastService_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_SWAP_SWAP_DEVICE_HH
