/**
 * @file
 * ZRAM swap device: synchronous compressed RAM swap.
 *
 * Matches the paper's configuration: LZO-RLE-style compression with
 * 4 KB read latency ~20 us and write latency ~35 us (Sec. IV). The
 * (de)compression runs on the *caller's* CPU — kswapd pays for
 * compression during reclaim, faulting threads pay for decompression —
 * so under load ZRAM adds CPU contention rather than I/O wait. The
 * compressed store occupies a pool whose size we account in pages, the
 * cost ZRAM trades for its speed.
 *
 * Per-page compressibility is a deterministic function of the slot's
 * content tag, drawn from a mixture approximating LZO-RLE behavior:
 * some pages are near-zero (RLE collapses them), most compress to
 * 25-55%, and a minority of high-entropy pages barely compress.
 */

#ifndef PAGESIM_SWAP_ZRAM_DEVICE_HH
#define PAGESIM_SWAP_ZRAM_DEVICE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/rng.hh"
#include "swap/swap_device.hh"

namespace pagesim
{

/** Tunables for ZramSwapDevice. */
struct ZramConfig
{
    /** 4 KB decompress-and-copy latency (paper: ~20 us). */
    SimDuration readLatency = usecs(20);
    /** 4 KB compress-and-store latency (paper: ~35 us). */
    SimDuration writeLatency = usecs(35);
    /** Pool limit in bytes (0 = unlimited, track only). */
    std::uint64_t poolLimitBytes = 0;
};

/** Synchronous compressed-RAM swap model. */
class ZramSwapDevice : public SwapDevice
{
  public:
    explicit ZramSwapDevice(const ZramConfig &config = ZramConfig{});

    const std::string &name() const override { return name_; }
    bool synchronous() const override { return true; }

    /**
     * ZRAM is synchronous: cpuCost()/noteSyncOp() is its interface.
     * A submit would strand its page InIo with no completion ever
     * coming, so it throws std::logic_error naming the device.
     */
    void submit(SwapSlot slot, bool is_write, Callback cb) override;

    SimDuration cpuCost(SwapSlot slot, bool is_write) const override;

    void noteSyncOp(SwapSlot slot, bool is_write) override;

    /**
     * The swap area's size in slots: a restored image's slots must lie
     * below it (SwapManager sets it; unbounded until then).
     */
    void limitSlots(std::uint32_t max_slots) { slotLimit_ = max_slots; }

    /** Content tag for @p slot; compressibility derives from it. */
    void setContentTag(SwapSlot slot, std::uint64_t tag);

    /** Forget a slot's stored bytes (slot freed). */
    void dropSlot(SwapSlot slot);

    /** Compressed size a page with @p tag occupies, in bytes. */
    static std::uint32_t compressedSize(std::uint64_t tag);

    std::uint64_t poolBytes() const { return poolBytes_; }
    std::uint64_t poolPeakBytes() const { return poolPeakBytes_; }

    /** Times a store exceeded poolLimitBytes (diagnostic). */
    std::uint64_t overflows() const { return overflows_; }

    // ---- Audit hooks ------------------------------------------------

    /** Does @p slot hold recorded contents? Tag out-param optional. */
    bool
    hasSlotTag(SwapSlot slot, std::uint64_t *tag = nullptr) const
    {
        if (slot >= slots_.size() || slots_[slot].size == 0)
            return false;
        if (tag != nullptr)
            *tag = slots_[slot].tag;
        return true;
    }

    /** Call @p fn(slot, tag) for every slot with contents, in order. */
    template <typename Fn>
    void
    forEachSlotTag(Fn &&fn) const
    {
        for (std::size_t s = 0; s < slots_.size(); ++s)
            if (slots_[s].size != 0)
                fn(static_cast<SwapSlot>(s), slots_[s].tag);
    }

    /** Recompute pool occupancy from the tag map (must == poolBytes). */
    std::uint64_t auditPoolBytes() const;

    void visitState(StateIO &io) override;

  private:
    // lint:state-cov-ok(construction parameter; the restore rig is rebuilt from the same validated config)
    ZramConfig config_;
    // lint:state-cov-ok(display name fixed at construction)
    std::string name_ = "zram";
    /** A slot's contents: its tag and compressedSize(tag). */
    struct Slot
    {
        std::uint64_t tag = 0;
        std::uint32_t size = 0; ///< 0 = empty (sizes are >= 64)
    };

    /**
     * Indexed by slot. The SwapManager hands slots out densely from 0
     * (below its slotHighWater()), so the table grows to the high
     * water and never holds a hole the manager did not free.
     */
    std::vector<Slot> slots_;
    /** Swap area size (limitSlots); bounds a restored table. */
    std::uint32_t slotLimit_ = kInvalidSlot;
    std::uint64_t poolBytes_ = 0;
    std::uint64_t poolPeakBytes_ = 0;
    std::uint64_t overflows_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_SWAP_ZRAM_DEVICE_HH
