#include "swap/zram_device.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace pagesim
{

ZramSwapDevice::ZramSwapDevice(const ZramConfig &config)
    : config_(config)
{
}

void
ZramSwapDevice::submit(SwapSlot, bool, Callback)
{
    throw std::logic_error(
        "swap device '" + name_ +
        "' is synchronous: submit() is unsupported (use cpuCost() and "
        "noteSyncOp())");
}

std::uint32_t
ZramSwapDevice::compressedSize(std::uint64_t tag)
{
    // Deterministic per-tag LZO-RLE-like mixture:
    //   ~12% near-zero pages  -> ~1.5% of a page (RLE collapse)
    //   ~78% typical pages    -> 25..55%
    //   ~10% high entropy     -> 85..100% (stored nearly raw)
    const std::uint64_t h = splitmix64(tag ^ 0x5a17ab1e00c0ffeeull);
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    double ratio;
    if (u < 0.12) {
        ratio = 0.015;
    } else if (u < 0.90) {
        // Spread smoothly over [0.25, 0.55).
        ratio = 0.25 + 0.30 * ((u - 0.12) / 0.78);
    } else {
        ratio = 0.85 + 0.15 * ((u - 0.90) / 0.10);
    }
    const double bytes = ratio * static_cast<double>(kPageSize);
    return static_cast<std::uint32_t>(
        std::clamp(bytes, 64.0, static_cast<double>(kPageSize)));
}

SimDuration
ZramSwapDevice::cpuCost(SwapSlot slot, bool is_write) const
{
    // Cost scales mildly with how hard the page is to compress: an
    // incompressible page costs ~1.3x the nominal latency, a zero page
    // ~0.5x. Derive from the slot's tag when known — for writes the
    // caller must therefore record the new contents (setContentTag via
    // SwapManager::recordContents) BEFORE asking for the cost, or the
    // charge reflects the slot's previous occupant.
    const SimDuration base =
        is_write ? config_.writeLatency : config_.readLatency;
    if (slot >= slots_.size() || slots_[slot].size == 0)
        return base;
    const double frac = static_cast<double>(slots_[slot].size) /
                        static_cast<double>(kPageSize);
    const double scale = 0.5 + 0.8 * frac;
    return static_cast<SimDuration>(static_cast<double>(base) * scale);
}

void
ZramSwapDevice::setContentTag(SwapSlot slot, std::uint64_t tag)
{
    // A write to an occupied slot replaces its contents.
    if (slot >= slots_.size())
        slots_.resize(static_cast<std::size_t>(slot) + 1);
    Slot &s = slots_[slot];
    assert(poolBytes_ >= s.size);
    poolBytes_ -= s.size;
    s.tag = tag;
    s.size = compressedSize(tag);
    poolBytes_ += s.size;
    poolPeakBytes_ = std::max(poolPeakBytes_, poolBytes_);
    if (config_.poolLimitBytes != 0 &&
        poolBytes_ > config_.poolLimitBytes) {
        ++overflows_;
    }
}

void
ZramSwapDevice::dropSlot(SwapSlot slot)
{
    if (slot >= slots_.size())
        return;
    Slot &s = slots_[slot];
    assert(poolBytes_ >= s.size);
    poolBytes_ -= s.size;
    s = Slot{};
}

std::uint64_t
ZramSwapDevice::auditPoolBytes() const
{
    // From the tags, not the cached sizes: the audit re-derives both.
    std::uint64_t bytes = 0;
    forEachSlotTag([&](SwapSlot, std::uint64_t tag) {
        bytes += compressedSize(tag);
    });
    return bytes;
}

void
ZramSwapDevice::noteSyncOp(SwapSlot, bool is_write)
{
    if (is_write)
        ++stats_.writes;
    else
        ++stats_.reads;
}

namespace
{

/** One slot -> tag entry as the image stores it: u32 slot, u64 tag. */
struct [[gnu::packed]] TagEntry
{
    SwapSlot slot;
    std::uint64_t tag;
};
static_assert(sizeof(TagEntry) == 12);

} // namespace

void
ZramSwapDevice::visitState(StateIO &io)
{
    SwapDevice::visitState(io);
    // Entries in slot order, occupied slots only.
    std::vector<TagEntry> entries;
    if (!io.loading())
        forEachSlotTag([&](SwapSlot slot, std::uint64_t tag) {
            entries.push_back(TagEntry{slot, tag});
        });
    io.podVec(entries);
    if (io.loading() && io.ok()) {
        // Strictly ascending, as saved: no slot twice, and the last
        // one bounds the table.
        for (std::size_t i = 1; i < entries.size(); ++i)
            io.require(entries[i - 1].slot < entries[i].slot);
        io.require(entries.empty() || entries.back().slot < slotLimit_);
    }
    if (io.loading() && io.ok()) {
        slots_.assign(entries.empty()
                          ? 0
                          : static_cast<std::size_t>(entries.back().slot) + 1,
                      Slot{});
        for (const TagEntry &e : entries)
            slots_[e.slot] = Slot{e.tag, compressedSize(e.tag)};
    }
    io.u64(poolBytes_);
    io.u64(poolPeakBytes_);
    io.u64(overflows_);
}

} // namespace pagesim
