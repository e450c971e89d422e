/**
 * @file
 * Workload abstraction.
 *
 * A Workload declares its memory footprint and thread count, builds
 * its data layout (VMAs) into an address space, and compiles one
 * OpStream per thread. The workload's *content* (data layout, request
 * trace) is derived from a workload seed that stays FIXED across
 * trials — matching the paper's methodology of running the identical
 * workload 25 times and attributing the remaining variance to the
 * system (Sec. IV). Per-trial randomness lives in the Simulation's
 * root seed (device jitter, daemon scheduling, policy salts).
 */

#ifndef PAGESIM_WORKLOAD_WORKLOAD_HH
#define PAGESIM_WORKLOAD_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "mem/address_space.hh"
#include "sim/types.hh"
#include "workload/barrier.hh"
#include "workload/ops.hh"

namespace pagesim
{

class MemoryManager;

/** Everything a workload needs to set itself up. */
struct WorkloadContext
{
    MemoryManager *mm = nullptr;
    AddressSpace *space = nullptr;
    /**
     * Environment seed, varying per trial (unlike the workload seed).
     * For runtime-system behavior that legitimately differs across
     * executions of identical input — e.g. JVM garbage-collection
     * timing in the Spark-SQL model. Workload *content* (data, access
     * order, request trace) must never depend on it.
     */
    std::uint64_t envSeed = 0;
};

/** Abstract benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual const std::string &name() const = 0;

    /** Total pages the workload will touch (sizes physical memory). */
    virtual std::uint64_t footprintPages() const = 0;

    virtual unsigned numThreads() const = 0;

    /** Create VMAs and internal layout; called once per trial. */
    virtual void build(WorkloadContext &ctx) = 0;

    /** Compile thread @p tid's op stream; called after build(). */
    virtual std::unique_ptr<OpStream> stream(unsigned tid) = 0;

    /** Barrier lookup for Op::Kind::Barrier (nullptr = no-op). */
    virtual SimBarrier *barrier(std::uint32_t) { return nullptr; }

    /** A thread finished a measured request of class @p klass. */
    virtual void recordRequest(std::uint32_t, SimDuration) {}

    /** A thread reached phase marker @p id at time @p now. */
    virtual void phaseReached(unsigned, std::uint32_t, SimTime) {}

    /** Visit every SimBarrier this workload owns (checkpointing). */
    virtual void forEachBarrier(const std::function<void(SimBarrier &)> &)
    {
    }

    /**
     * Checkpoint workload-level mutable state (measurement flags,
     * latency histograms). Barriers are captured separately via
     * forEachBarrier (they reference actors); stream cursors live in
     * the per-thread OpStream. Default: stateless.
     */
    virtual void visitState(StateIO &) {}
};

} // namespace pagesim

#endif // PAGESIM_WORKLOAD_WORKLOAD_HH
