/**
 * @file
 * Tests for the checkpoint serialization primitives: the checksum64
 * section checksum (pinned, so an algorithm change cannot ship without
 * a kCheckpointVersion bump), Sink's in-place backfill and move-out,
 * and Source's lane-skipping shape reads.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
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

/** Every StateIO op once, as a checkpointed class would use them. */
struct Sample
{
    enum class Color : std::uint8_t
    {
        Red,
        Green,
        Blue,
    };

    struct Item
    {
        std::uint32_t id = 0;
        void visitState(StateIO &io) { io.u32(id); }
    };

    std::uint32_t b = 0;
    std::uint64_t c = 0;
    double d = 0.0;
    bool e = false;
    Color color = Color::Red;
    std::vector<std::uint16_t> lane = std::vector<std::uint16_t>(5);
    std::vector<std::uint64_t> free;
    std::vector<Item> items;
    std::optional<Item> maybe;

    void
    visitState(StateIO &io)
    {
        io.u32(b);
        io.u64(c);
        io.f64(d);
        io.boolean(e);
        io.enumU8(color, Color::Blue);
        io.expect(std::uint32_t{77});
        io.lane(lane);
        io.podVec(free, 8);
        io.objects(items, 4);
        io.optional(maybe, Item{});
        io.record([this](StateIO &rec) { rec.u64(c); });
    }
};

Sample
filledSample()
{
    Sample s;
    s.b = 0xdeadbeef;
    s.c = 1ull << 40;
    s.d = -2.5;
    s.e = true;
    s.color = Sample::Color::Blue;
    s.lane = {1, 2, 3, 4, 5};
    s.free = {9, 8};
    s.items = {{11}, {12}, {13}};
    s.maybe = Sample::Item{42};
    return s;
}

std::vector<std::uint8_t>
saveSample(Sample s)
{
    Sink sink;
    StateIO io(sink);
    s.visitState(io);
    return std::move(sink).take();
}

TEST(StateIO, EveryModeWalksTheSameBytes)
{
    Sample s = filledSample();
    const std::vector<std::uint8_t> bytes = saveSample(s);

    StateIO sizer;
    s.visitState(sizer);
    EXPECT_EQ(sizer.size(), bytes.size());

    Sample fresh;
    Source check_src(bytes.data(), bytes.size());
    StateIO check(check_src, nullptr, StateIO::Mode::Check);
    fresh.visitState(check);
    EXPECT_TRUE(check.exhausted());
    EXPECT_EQ(fresh.b, 0u) << "Check mode stores nothing";
    EXPECT_TRUE(fresh.items.empty());
    EXPECT_FALSE(fresh.maybe.has_value());

    Source load_src(bytes.data(), bytes.size());
    StateIO load(load_src, nullptr);
    fresh.visitState(load);
    EXPECT_TRUE(load.exhausted());
    EXPECT_EQ(saveSample(fresh), bytes) << "a loaded object re-saves "
                                           "to the same bytes";
    EXPECT_EQ(fresh.d, -2.5);
    EXPECT_EQ(fresh.color, Sample::Color::Blue);
    ASSERT_EQ(fresh.items.size(), 3u);
    EXPECT_EQ(fresh.items[2].id, 13u);
    ASSERT_TRUE(fresh.maybe.has_value());
    EXPECT_EQ(fresh.maybe->id, 42u);
}

TEST(StateIO, CheckModeReadsLaneCountsWithoutStoring)
{
    const std::vector<std::uint8_t> bytes = saveSample(filledSample());

    // The same image against a live object whose fixed lane is one
    // entry longer: a mismatch, in Check and Load mode alike, and a
    // Load leaves the refused lane as it was.
    for (const StateIO::Mode mode :
         {StateIO::Mode::Check, StateIO::Mode::Load}) {
        Sample other;
        other.lane.assign(6, 7);
        Source src(bytes.data(), bytes.size());
        StateIO io(src, nullptr, mode);
        other.visitState(io);
        EXPECT_TRUE(io.mismatched());
        EXPECT_FALSE(io.exhausted());
        EXPECT_EQ(other.lane, std::vector<std::uint16_t>(6, 7));
        EXPECT_TRUE(other.items.empty());
    }

    // A count the remaining bytes cannot hold fails without a resize.
    Sink bad;
    bad.u64(1000);
    bad.u64(0);
    Source src(bad.data().data(), bad.size());
    StateIO io(src, nullptr);
    std::vector<std::uint32_t> v;
    io.podVec(v);
    EXPECT_FALSE(io.ok());
    EXPECT_FALSE(io.mismatched());
    EXPECT_TRUE(v.empty());
}

TEST(StateIO, DecodedIdsAndEnumsOutsideTheirRangeFail)
{
    // An enum byte past the last enumerator.
    std::vector<std::uint8_t> bytes = saveSample(filledSample());
    bytes[4 + 8 + 8 + 1] = 3;
    Sample fresh;
    Source src(bytes.data(), bytes.size());
    StateIO io(src, nullptr, StateIO::Mode::Check);
    fresh.visitState(io);
    EXPECT_FALSE(io.ok());
    EXPECT_FALSE(io.mismatched());

    // Frame owners and actors index the link tables; an index past
    // them fails, and a free frame's id always decodes.
    for (const std::uint32_t id : {1u, StateLinks::kBalloonSpace}) {
        Sink sink;
        sink.u64(2);
        sink.u32(StateLinks::kNoSpace);
        sink.u32(id);
        std::vector<AddressSpace *> owners(2);
        Source owner_src(sink.data().data(), sink.size());
        StateIO owner_io(owner_src, nullptr);
        owner_io.ownerLane(owners);
        EXPECT_FALSE(owner_io.ok()) << id;
    }
    Sink sink;
    sink.u64(1);
    sink.u32(0);
    std::vector<SimActor *> waiters;
    Source actor_src(sink.data().data(), sink.size());
    StateIO actor_io(actor_src, nullptr);
    actor_io.actorList(waiters);
    EXPECT_FALSE(actor_io.ok());
}
} // namespace
} // namespace pagesim
