#include <gtest/gtest.h>

#include <bit>

#include "mem/page_table.hh"

namespace pagesim
{
namespace
{

TEST(PageTable, GrowsToRegionGranularity)
{
    PageTable t;
    t.growTo(1);
    EXPECT_EQ(t.numRegions(), 1u);
    EXPECT_EQ(t.span(), kPtesPerRegion);
    t.growTo(kPtesPerRegion + 1);
    EXPECT_EQ(t.numRegions(), 2u);
}

TEST(PageTable, GrowNeverShrinks)
{
    PageTable t;
    t.growTo(10 * kPtesPerRegion);
    const auto regions = t.numRegions();
    t.growTo(1);
    EXPECT_EQ(t.numRegions(), regions);
}

TEST(PageTable, RegionCountersTrackMappedAndPresent)
{
    // A region's mapped/present counts are popcounts of its bitmap
    // words; the summary bit follows the present count.
    PageTable t;
    t.growTo(2 * kPtesPerRegion);
    t.markMapped(0, false);
    t.markMapped(1, false);
    t.markMapped(kPtesPerRegion, true);
    EXPECT_EQ(std::popcount(t.mappedWord(0)), 2);
    EXPECT_EQ(std::popcount(t.mappedWord(1)), 1);
    EXPECT_TRUE(t.at(kPtesPerRegion).file());
    EXPECT_FALSE(t.anyPresent(0));
    EXPECT_EQ(t.nextPresentRegion(0), t.numRegions());

    t.mapFrame(0, 5);
    EXPECT_EQ(std::popcount(t.presentWord(0)), 1);
    EXPECT_TRUE(t.anyPresent(0));
    EXPECT_EQ(t.nextPresentRegion(0), 0u);
    // Present 1 -> 0 clears the region's summary bit.
    t.unmapToSwap(0, 1, 0);
    EXPECT_EQ(std::popcount(t.presentWord(0)), 0);
    EXPECT_FALSE(t.anyPresent(0));
    EXPECT_EQ(t.nextPresentRegion(0), t.numRegions());
}

TEST(PageTable, Totals)
{
    PageTable t;
    t.growTo(3 * kPtesPerRegion);
    for (Vpn v = 0; v < 5; ++v)
        t.markMapped(v, false);
    t.mapFrame(0, 10);
    t.mapFrame(1, 11);
    EXPECT_EQ(t.totalMapped(), 5u);
    EXPECT_EQ(t.totalPresent(), 2u);
    // Totals are bitmap popcounts; a present -> present remap (tier
    // migration) must not book the PTE twice.
    t.mapFrame(1, 12);
    EXPECT_EQ(t.totalPresent(), 2u);
    t.unmapDiscard(0, 0);
    EXPECT_EQ(t.totalPresent(), 1u);
    EXPECT_EQ(t.totalMapped(), 5u);
}

TEST(PageTable, BitmapsMirrorTrackedMutations)
{
    PageTable t;
    t.growTo(2 * kPtesPerRegion);
    t.markMapped(3, false);
    t.markMapped(kPtesPerRegion + 1, false);
    EXPECT_EQ(t.mappedWord(0, 0) & (1ull << 3), 1ull << 3);
    EXPECT_EQ(t.mappedWord(1, 0) & 0x2u, 0x2u);

    t.mapFrame(3, 7);
    EXPECT_EQ(t.presentWord(0, 0), 1ull << 3);
    EXPECT_EQ(t.accessedWord(0, 0), 0u);
    t.setAccessed(3);
    EXPECT_EQ(t.accessedWord(0, 0), 1ull << 3);
    EXPECT_TRUE(t.at(3).accessed());

    EXPECT_TRUE(t.testAndClearAccessed(3));
    EXPECT_EQ(t.accessedWord(0, 0), 0u);
    EXPECT_FALSE(t.at(3).accessed());
    EXPECT_FALSE(t.testAndClearAccessed(3));

    t.setAccessed(3);
    t.unmapToSwap(3, 9, 0);
    EXPECT_EQ(t.presentWord(0, 0), 0u);
    EXPECT_EQ(t.accessedWord(0, 0), 0u); // unmap clears Accessed too
}

TEST(PageTable, SummaryBitmapAndNextPresentRegion)
{
    PageTable t;
    const std::uint64_t nr = 130; // spans three summary words
    t.growTo(nr * kPtesPerRegion);
    EXPECT_EQ(t.nextPresentRegion(0), nr);

    t.markMapped(regionBase(2), false);
    t.markMapped(regionBase(129), false);
    t.mapFrame(regionBase(2), 1);
    t.mapFrame(regionBase(129), 2);
    EXPECT_TRUE(t.anyPresent(2));
    EXPECT_FALSE(t.anyPresent(3));
    EXPECT_EQ(t.nextPresentRegion(0), 2u);
    EXPECT_EQ(t.nextPresentRegion(2), 2u);
    EXPECT_EQ(t.nextPresentRegion(3), 129u);
    EXPECT_EQ(t.nextPresentRegion(130), nr);

    t.unmapDiscard(regionBase(2), 0);
    EXPECT_FALSE(t.anyPresent(2));
    EXPECT_EQ(t.nextPresentRegion(0), 129u);
    // Region 129 keeps its summary bit while any PTE stays present.
    t.markMapped(regionBase(129) + 1, false);
    t.mapFrame(regionBase(129) + 1, 3);
    t.unmapDiscard(regionBase(129), 0);
    EXPECT_TRUE(t.anyPresent(129));
    t.unmapDiscard(regionBase(129) + 1, 0);
    EXPECT_EQ(t.nextPresentRegion(0), nr);
}

TEST(PageTable, ClearAccessedBitsIsBitmapSideOnly)
{
    PageTable t;
    t.growTo(kPtesPerRegion);
    t.markMapped(0, false);
    t.markMapped(1, false);
    t.mapFrame(0, 1);
    t.mapFrame(1, 2);
    t.setAccessed(0);
    t.setAccessed(1);
    t.clearAccessedBits(0, 0, 0x1u);
    EXPECT_EQ(t.accessedWord(0, 0), 0x2u);
    // The PTE flag fixup is the caller's job (word-store + fixup).
    EXPECT_TRUE(t.at(0).accessed());
}

TEST(PageTable, RegionOfMath)
{
    EXPECT_EQ(regionOf(0), 0u);
    EXPECT_EQ(regionOf(kPtesPerRegion - 1), 0u);
    EXPECT_EQ(regionOf(kPtesPerRegion), 1u);
    EXPECT_EQ(regionBase(3), 3 * kPtesPerRegion);
}

} // namespace
} // namespace pagesim
