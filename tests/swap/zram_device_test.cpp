#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

} // namespace
} // namespace pagesim
