/**
 * @file
 * The operation vocabulary workload threads execute.
 *
 * Workloads compile to per-thread streams of Ops, handed out a block
 * at a time (OpStream); the WorkThread actor interprets them against
 * the MemoryManager. Keeping the vocabulary tiny (compute, touch,
 * barrier, latency markers) lets very different applications — staged
 * SQL, iterative graph kernels, request-serving KV stores — share one
 * execution engine.
 */

#ifndef PAGESIM_WORKLOAD_OPS_HH
#define PAGESIM_WORKLOAD_OPS_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "mem/types.hh"
#include "sim/serialize.hh"
#include "sim/types.hh"

namespace pagesim
{

/** One workload-thread operation. */
struct Op
{
    enum class Kind : std::uint8_t
    {
        Compute,      ///< burn `compute` ns of CPU
        Touch,        ///< memory access to `vpn` (write if `write`)
        FdTouch,      ///< buffered-I/O access to `vpn` (tier path)
        Barrier,      ///< synchronize on workload barrier `id`
        RequestStart, ///< begin latency measurement, class `id`
        RequestEnd,   ///< end latency measurement, class `id`
        Phase,        ///< notify the workload phase `id` was reached
    };

    Kind kind = Kind::Compute;
    bool write = false;
    std::uint32_t id = 0;
    Vpn vpn = 0;
    SimDuration compute = 0;

    static Op
    makeCompute(SimDuration ns)
    {
        Op op;
        op.kind = Kind::Compute;
        op.compute = ns;
        return op;
    }

    static Op
    makeTouch(Vpn vpn, bool write)
    {
        Op op;
        op.kind = Kind::Touch;
        op.vpn = vpn;
        op.write = write;
        return op;
    }

    static Op
    makeFdTouch(Vpn vpn, bool write)
    {
        Op op;
        op.kind = Kind::FdTouch;
        op.vpn = vpn;
        op.write = write;
        return op;
    }

    static Op
    makeBarrier(std::uint32_t id)
    {
        Op op;
        op.kind = Kind::Barrier;
        op.id = id;
        return op;
    }

    static Op
    makeRequestStart(std::uint32_t klass)
    {
        Op op;
        op.kind = Kind::RequestStart;
        op.id = klass;
        return op;
    }

    static Op
    makeRequestEnd(std::uint32_t klass)
    {
        Op op;
        op.kind = Kind::RequestEnd;
        op.id = klass;
        return op;
    }

    static Op
    makePhase(std::uint32_t id)
    {
        Op op;
        op.kind = Kind::Phase;
        op.id = id;
        return op;
    }

    /**
     * Field-wise serialization: Op has padding bytes that are
     * indeterminate after the makeX() builders, so raw-byte capture
     * would poison checkpoint fingerprints.
     */
    void
    visitState(StateIO &io)
    {
        io.enumU8(kind, Kind::Phase);
        io.boolean(write);
        io.u32(id);
        io.u64(vpn);
        io.u64(compute);
    }
};

/**
 * Lazy per-thread producer of Ops, handed out a block at a time.
 *
 * A stream writes up to kBlockOps ops into its inline block per
 * refill() call; next() and take() drain the block without a virtual
 * call, so the per-op cost of the interpreter loop is a bounds check
 * (and, for next(), a copy). A block holds one unit of the stream's
 * program: one YCSB load or request expansion, or up to kBlockOps ops
 * of a single PatternStream segment.
 */
class OpStream
{
  public:
    /** Capacity of the inline block: the most ops one refill() writes. */
    static constexpr std::size_t kBlockOps = 64;

    virtual ~OpStream() = default;

    /** Produce the next op; false when the thread's work is done. */
    bool
    next(Op &op)
    {
        const Op *p = take();
        if (p == nullptr)
            return false;
        op = *p;
        return true;
    }

    /**
     * The next op in place, valid until the next take() or next(); a
     * caller that must keep it longer copies it. nullptr when the
     * thread's work is done (and on every later call).
     */
    const Op *
    take()
    {
        if (head_ < size_) [[likely]]
            return &block_[head_++];
        return takeAfterRefill();
    }

    /**
     * Checkpoint the stream's cursor state. The compiled program
     * itself (segments, request mix) is rebuilt from the workload
     * seed at restore time; only the position within it is captured.
     *
     * The default saves the block as it stands: the op count, the ops
     * and the head (how many were handed out). A stream whose refill()
     * keeps its own cursor saves that first and then calls this, or
     * saves instead the cursor of the last op handed out and drops the
     * block on restore (see dropBlock()).
     */
    virtual void
    visitState(StateIO &io)
    {
        std::uint64_t size = size_;
        size = io.u64(size);
        io.require(size <= kBlockOps);
        for (std::uint64_t i = 0; i < size && io.ok(); ++i)
            block_[i].visitState(io);
        std::uint64_t head = head_;
        head = io.u64(head);
        io.require(head <= size);
        if (io.loading() && io.ok()) {
            size_ = static_cast<std::uint32_t>(size);
            head_ = static_cast<std::uint32_t>(head);
        }
    }

  protected:
    /**
     * Write the stream's next ops into @p block (room for kBlockOps)
     * and return how many; 0 when the work is done. Called only once
     * every op of the previous block was handed out.
     */
    virtual std::size_t refill(Op *block) = 0;

    /** Ops of the current block handed out so far. */
    std::size_t consumed() const { return head_; }

    /** Ops of the current block not handed out yet. */
    std::size_t unconsumed() const { return size_ - head_; }

    /** Forget the block (a restored cursor refills from scratch). */
    void dropBlock() { head_ = size_ = 0; }

  private:
    [[gnu::noinline]] const Op *
    takeAfterRefill()
    {
        head_ = 0;
        size_ = static_cast<std::uint32_t>(refill(block_.data()));
        if (size_ == 0)
            return nullptr;
        head_ = 1;
        return &block_[0];
    }

    std::array<Op, kBlockOps> block_{};
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_WORKLOAD_OPS_HH
