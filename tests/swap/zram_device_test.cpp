#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/serialize.hh"
#include "swap/zram_device.hh"

namespace pagesim
{
namespace
{

TEST(ZramDevice, IsSynchronous)
{
    ZramSwapDevice zram;
    EXPECT_TRUE(zram.synchronous());
}

TEST(ZramDevice, SubmitIsRefused)
{
    // A queued op on a synchronous device would never complete: its
    // page would stay InIo and its waiters asleep. Refuse loudly.
    ZramSwapDevice zram;
    bool ran = false;
    try {
        zram.submit(3, true, [&ran] { ran = true; });
        ADD_FAILURE() << "submit() on a synchronous device returned";
    } catch (const std::logic_error &e) {
        EXPECT_NE(std::string(e.what()).find("zram"), std::string::npos)
            << e.what();
    }
    EXPECT_FALSE(ran);
    EXPECT_EQ(zram.stats().writes, 0u);
}

TEST(ZramDevice, NominalCosts)
{
    ZramConfig cfg;
    ZramSwapDevice zram(cfg);
    // Unknown slot: nominal latency.
    EXPECT_EQ(zram.cpuCost(0, false), usecs(20));
    EXPECT_EQ(zram.cpuCost(0, true), usecs(35));
}

TEST(ZramDevice, CompressedSizeDeterministicAndBounded)
{
    for (std::uint64_t tag = 0; tag < 5000; ++tag) {
        const std::uint32_t size = ZramSwapDevice::compressedSize(tag);
        EXPECT_EQ(size, ZramSwapDevice::compressedSize(tag));
        EXPECT_GE(size, 64u);
        EXPECT_LE(size, kPageSize);
    }
}

TEST(ZramDevice, MixtureShapeMatchesLzoRle)
{
    // ~12% near-zero, most 25-55%, ~10% high entropy.
    int tiny = 0, mid = 0, big = 0;
    constexpr int kN = 20000;
    for (std::uint64_t tag = 0; tag < kN; ++tag) {
        const double frac =
            ZramSwapDevice::compressedSize(tag) /
            static_cast<double>(kPageSize);
        if (frac < 0.05)
            ++tiny;
        else if (frac < 0.6)
            ++mid;
        else
            ++big;
    }
    EXPECT_NEAR(tiny / double(kN), 0.12, 0.02);
    EXPECT_NEAR(mid / double(kN), 0.78, 0.02);
    EXPECT_NEAR(big / double(kN), 0.10, 0.02);
    // Overall mean ratio lands near LZO-RLE's typical ~0.4.
    double sum = 0;
    for (std::uint64_t tag = 0; tag < kN; ++tag)
        sum += ZramSwapDevice::compressedSize(tag);
    EXPECT_NEAR(sum / kN / kPageSize, 0.42, 0.06);
}

TEST(ZramDevice, PoolAccountsStoredSlots)
{
    ZramSwapDevice zram;
    zram.setContentTag(0, 100);
    zram.setContentTag(1, 200);
    const std::uint64_t two = zram.poolBytes();
    EXPECT_GT(two, 0u);
    // Overwrite replaces, not adds.
    zram.setContentTag(0, 300);
    const std::uint64_t after = zram.poolBytes();
    EXPECT_EQ(after,
              ZramSwapDevice::compressedSize(300) +
                  ZramSwapDevice::compressedSize(200));
    zram.dropSlot(0);
    zram.dropSlot(1);
    EXPECT_EQ(zram.poolBytes(), 0u);
    EXPECT_GE(zram.poolPeakBytes(), two);
}

TEST(ZramDevice, DropUnknownSlotIsNoop)
{
    ZramSwapDevice zram;
    EXPECT_NO_FATAL_FAILURE(zram.dropSlot(42));
    EXPECT_EQ(zram.poolBytes(), 0u);
}

TEST(ZramDevice, CostScalesWithCompressibility)
{
    ZramSwapDevice zram;
    // Find a near-zero page and a high-entropy page.
    std::uint64_t easy = 0, hard = 0;
    for (std::uint64_t tag = 0;; ++tag) {
        const double frac = ZramSwapDevice::compressedSize(tag) /
                            static_cast<double>(kPageSize);
        if (frac < 0.05 && easy == 0)
            easy = tag + 1;
        if (frac > 0.9 && hard == 0)
            hard = tag + 1;
        if (easy && hard)
            break;
    }
    zram.setContentTag(10, easy - 1);
    zram.setContentTag(11, hard - 1);
    EXPECT_LT(zram.cpuCost(10, true), zram.cpuCost(11, true));
}

TEST(ZramDevice, OverflowCountsWhenLimited)
{
    ZramConfig cfg;
    cfg.poolLimitBytes = 1000;
    ZramSwapDevice zram(cfg);
    zram.setContentTag(0, 1);
    zram.setContentTag(1, 2);
    zram.setContentTag(2, 3);
    EXPECT_GT(zram.overflows(), 0u);
}

TEST(ZramDevice, SyncOpStats)
{
    ZramSwapDevice zram;
    zram.noteSyncOp(0, false);
    zram.noteSyncOp(0, true);
    zram.noteSyncOp(0, true);
    EXPECT_EQ(zram.stats().reads, 1u);
    EXPECT_EQ(zram.stats().writes, 2u);
}

/** @p zram's checkpoint image. */
ByteBuffer
imageOf(ZramSwapDevice &zram)
{
    Sink sink;
    StateIO io(sink);
    zram.visitState(io);
    return sink.data();
}

/** Load @p image into @p zram; true when it decoded cleanly. */
bool
load(ZramSwapDevice &zram, const ByteBuffer &image)
{
    Source src(image.data(), image.size());
    StateIO io(src, nullptr);
    zram.visitState(io);
    return io.exhausted();
}

/** An image holding these (slot, tag) entries, in this order. */
ByteBuffer
imageWith(const std::vector<std::pair<SwapSlot, std::uint64_t>> &slots)
{
    // The image's entry layout: u32 slot, u64 tag, packed.
    struct [[gnu::packed]] Entry
    {
        SwapSlot slot;
        std::uint64_t tag;
    };
    std::vector<Entry> entries;
    for (const auto &[slot, tag] : slots)
        entries.push_back(Entry{slot, tag});
    Sink sink;
    StateIO io(sink);
    ZramSwapDevice blank;
    blank.SwapDevice::visitState(io);
    io.podVec(entries);
    std::uint64_t zero = 0;
    for (int i = 0; i < 3; ++i) // pool bytes, peak, overflows
        io.u64(zero);
    return sink.data();
}

TEST(ZramDevice, SlotTableRoundTripsInSlotOrder)
{
    ZramSwapDevice zram;
    zram.setContentTag(9, 900);
    zram.setContentTag(2, 200);
    zram.setContentTag(5, 500);
    zram.dropSlot(2);
    std::vector<SwapSlot> order;
    zram.forEachSlotTag([&](SwapSlot slot, std::uint64_t) {
        order.push_back(slot);
    });
    EXPECT_EQ(order, (std::vector<SwapSlot>{5, 9}));
    // The load requires ascending slots, so it also checks the order
    // the save wrote.
    const ByteBuffer image = imageOf(zram);
    ZramSwapDevice restored;
    restored.limitSlots(10);
    ASSERT_TRUE(load(restored, image));
    std::uint64_t tag = 0;
    EXPECT_TRUE(restored.hasSlotTag(9, &tag));
    EXPECT_EQ(tag, 900u);
    EXPECT_FALSE(restored.hasSlotTag(2));
    EXPECT_EQ(restored.poolBytes(), zram.poolBytes());
    EXPECT_EQ(restored.cpuCost(5, false), zram.cpuCost(5, false));
    EXPECT_EQ(imageOf(restored), image);
}

TEST(ZramDevice, RestoredSlotsMustAscendBelowTheSwapArea)
{
    // Save writes each occupied slot once, in ascending order, and the
    // swap area bounds the slot numbers: any other list is refused
    // before the table is sized from it.
    const struct
    {
        const char *name;
        std::vector<std::pair<SwapSlot, std::uint64_t>> slots;
        bool accepted;
    } cases[] = {
        {"ascending", {{1, 10}, {7, 70}}, true},
        {"empty", {}, true},
        {"out of order", {{7, 70}, {1, 10}}, false},
        {"a slot twice", {{1, 10}, {1, 11}}, false},
        {"last slot of the area", {{15, 10}}, true},
        {"past the swap area", {{16, 10}}, false},
        {"far past the swap area", {{kInvalidSlot - 1, 10}}, false},
    };
    for (const auto &c : cases) {
        ZramSwapDevice zram;
        zram.limitSlots(16);
        EXPECT_EQ(load(zram, imageWith(c.slots)), c.accepted) << c.name;
    }
}

} // namespace
} // namespace pagesim
