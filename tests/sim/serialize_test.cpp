/**
 * @file
 * Tests for the checkpoint serialization primitives: the checksum64
 * section checksum (pinned, so an algorithm change cannot ship without
 * a kCheckpointVersion bump), Sink's in-place backfill and move-out,
 * and Source's lane-skipping shape reads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "sim/serialize.hh"

namespace pagesim
{
namespace
{

/** Deterministic non-trivial bytes: a splitmix-style byte stream. */
std::vector<std::uint8_t>
patternBytes(std::size_t n)
{
    std::vector<std::uint8_t> b(n);
    std::uint64_t x = 0x243f6a8885a308d3ull;
    for (std::size_t i = 0; i < n; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        b[i] = static_cast<std::uint8_t>(x >> 56);
    }
    return b;
}

TEST(Checksum64, PinnedValue)
{
    // 1037 bytes = 32 full stripes + one trailing word + a 5-byte
    // partial word: every path of the algorithm. Changing this value
    // changes every checkpoint section's checksum, which is a format
    // change: bump kCheckpointVersion with it.
    const std::vector<std::uint8_t> b = patternBytes(1037);
    EXPECT_EQ(checksum64(b.data(), b.size()), 15118867170087927407ull);
}

TEST(Checksum64, EveryBitFlipOfOneKibChangesTheSum)
{
    std::vector<std::uint8_t> b = patternBytes(1024);
    const std::uint64_t base = checksum64(b.data(), b.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
        for (int bit = 0; bit < 8; ++bit) {
            b[i] ^= static_cast<std::uint8_t>(1u << bit);
            EXPECT_NE(checksum64(b.data(), b.size()), base)
                << "byte " << i << " bit " << bit;
            b[i] ^= static_cast<std::uint8_t>(1u << bit);
        }
    }
}

TEST(Checksum64, TailLengthsZeroToFortyAreDistinct)
{
    // Zero bytes are the hard case: the zero-padded partial word is
    // the same for every tail length, so only the length fold tells
    // them apart. Patterned bytes cover prefixes of one stream.
    const std::vector<std::uint8_t> zeros(40, 0);
    const std::vector<std::uint8_t> pattern = patternBytes(40);
    for (const std::vector<std::uint8_t> *buf : {&zeros, &pattern}) {
        std::set<std::uint64_t> sums;
        for (std::size_t len = 0; len <= 40; ++len)
            sums.insert(checksum64(buf->data(), len));
        EXPECT_EQ(sums.size(), 41u);
    }
}

TEST(Checksum64, IndependentOfBufferAlignment)
{
    const std::vector<std::uint8_t> b = patternBytes(300);
    std::vector<std::uint8_t> shifted(b.size() + 3);
    std::copy(b.begin(), b.end(), shifted.begin() + 3);
    EXPECT_EQ(checksum64(shifted.data() + 3, b.size()),
              checksum64(b.data(), b.size()));
}

TEST(Sink, PatchU64BackfillsLittleEndianInPlace)
{
    Sink sink;
    sink.u8(0xaa);
    const std::size_t slot = sink.size();
    sink.u64(0);
    sink.u8(0xbb);
    sink.patchU64(slot, 0x0102030405060708ull);
    const std::vector<std::uint8_t> want = {0xaa, 0x08, 0x07, 0x06, 0x05,
                                            0x04, 0x03, 0x02, 0x01, 0xbb};
    EXPECT_EQ(sink.data(), want);
}

TEST(Sink, TakeMovesTheBufferOut)
{
    Sink sink;
    sink.reserve(4096);
    sink.u32(7);
    const std::uint8_t *storage = sink.data().data();
    const std::vector<std::uint8_t> bytes = std::move(sink).take();
    EXPECT_EQ(bytes.data(), storage) << "take() must not copy";
    EXPECT_EQ(bytes.size(), 4u);
}

TEST(Source, SkipPodVecReadsCountsWithoutCopying)
{
    Sink sink;
    sink.podVec(std::vector<std::uint32_t>{1, 2, 3});
    sink.podVec(std::vector<std::uint64_t>{4});
    Source src(sink.data().data(), sink.size());
    EXPECT_EQ(src.skipPodVec<std::uint32_t>(), 3u);
    EXPECT_EQ(src.skipPodVec<std::uint64_t>(), 1u);
    EXPECT_TRUE(src.exhausted());

    // A count the remaining bytes cannot hold latches failure.
    Sink bad;
    bad.u64(1000);
    bad.u64(0);
    Source wrong(bad.data().data(), bad.size());
    EXPECT_EQ(wrong.skipPodVec<std::uint32_t>(), 0u);
    EXPECT_FALSE(wrong.ok());
}

} // namespace
} // namespace pagesim
