/**
 * @file
 * Swap-slot management.
 *
 * Allocates/frees slots on one swap device and keeps the device's
 * content model informed (ZRAM's pool accounting needs to know what
 * each slot holds). Slots are recycled LIFO so long runs reuse a
 * compact slot range.
 */

#ifndef PAGESIM_SWAP_SWAP_MANAGER_HH
#define PAGESIM_SWAP_SWAP_MANAGER_HH

#include <cassert>
#include <cstdint>
#include <vector>

#include "swap/swap_device.hh"
#include "swap/zram_device.hh"

namespace pagesim
{

/** Slot allocator bound to a single swap device. */
class SwapManager
{
  public:
    /**
     * @param device    backing device (not owned)
     * @param max_slots swap area size in pages
     */
    SwapManager(SwapDevice &device, std::uint32_t max_slots)
        : device_(&device), maxSlots_(max_slots)
    {
        zram_ = dynamic_cast<ZramSwapDevice *>(device_);
    }

    SwapDevice &device() { return *device_; }
    const SwapDevice &device() const { return *device_; }

    /** Allocate a slot; kInvalidSlot when the swap area is full. */
    SwapSlot
    allocate()
    {
        if (!freeSlots_.empty()) {
            const SwapSlot s = freeSlots_.back();
            freeSlots_.pop_back();
            ++used_;
            return s;
        }
        if (nextSlot_ >= maxSlots_)
            return kInvalidSlot;
        ++used_;
        return nextSlot_++;
    }

    /** Release a slot. */
    void
    release(SwapSlot slot)
    {
        assert(slot != kInvalidSlot);
        assert(used_ > 0);
        --used_;
        if (zram_)
            zram_->dropSlot(slot);
        freeSlots_.push_back(slot);
    }

    /**
     * Record what a just-written slot holds. @p content_tag is a stable
     * identity for the page's contents (we use a hash of space id and
     * VPN) from which the ZRAM compression model derives sizes.
     */
    void
    recordContents(SwapSlot slot, std::uint64_t content_tag)
    {
        if (zram_)
            zram_->setContentTag(slot, content_tag);
    }

    std::uint32_t usedSlots() const { return used_; }
    std::uint32_t maxSlots() const { return maxSlots_; }

    // ---- Audit hooks ------------------------------------------------

    /** Is @p slot currently allocated? (Linear in the free list.) */
    bool
    slotAllocated(SwapSlot slot) const
    {
        if (slot == kInvalidSlot || slot >= nextSlot_)
            return false;
        for (const SwapSlot s : freeSlots_)
            if (s == slot)
                return false;
        return true;
    }

    /** Slots handed out at least once; allocated iff not on the free
     *  list and below this bound. */
    SwapSlot slotHighWater() const { return nextSlot_; }

    /** The raw free-slot stack (LIFO recycling order). */
    const std::vector<SwapSlot> &freeSlotList() const
    {
        return freeSlots_;
    }

    /** The device as a ZRAM model, or nullptr. */
    const ZramSwapDevice *zram() const { return zram_; }

    /**
     * Checkpoint the slot ledger plus the backing device. The free
     * list is captured verbatim: its LIFO order decides which slot
     * the next allocation returns.
     */
    void
    visitState(StateIO &io)
    {
        io.u32(nextSlot_);
        io.u32(used_);
        io.podVec(freeSlots_);
        device_->visitState(io);
    }

  private:
    SwapDevice *device_;
    ZramSwapDevice *zram_ = nullptr;
    // lint:state-cov-ok(capacity fixed at construction from the validated config)
    std::uint32_t maxSlots_;
    std::uint32_t nextSlot_ = 0;
    std::uint32_t used_ = 0;
    std::vector<SwapSlot> freeSlots_;
};

} // namespace pagesim

#endif // PAGESIM_SWAP_SWAP_MANAGER_HH
