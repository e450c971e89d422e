/**
 * @file
 * Tests for the checkpoint serialization primitives: the checksum64
 * section checksum (pinned, so an algorithm change cannot ship without
 * a kCheckpointVersion bump), Sink's in-place backfill and move-out,
 * Source's lane-skipping shape reads, and the packed-lane codec
 * (round trips over every word width and lane shape, the Size bound,
 * and malformed lanes that must fail without storing anything).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <set>
#include <type_traits>
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
    const ByteBuffer want = {0xaa, 0x08, 0x07, 0x06, 0x05,
                                            0x04, 0x03, 0x02, 0x01, 0xbb};
    EXPECT_EQ(sink.data(), want);
}

TEST(Sink, TakeMovesTheBufferOut)
{
    Sink sink;
    sink.reserve(4096);
    sink.u32(7);
    const std::uint8_t *storage = sink.data().data();
    const ByteBuffer bytes = std::move(sink).take();
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
    // lint:fp-state-ok(fixture field for the io.f64 round trip; no simulation reads it)
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

ByteBuffer
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
    const ByteBuffer bytes = saveSample(s);

    // Size mode counts scalars exactly and each packed lane at its
    // documented bound, 16 + words*w + ceil(words/64)*9; Save never
    // writes more than that.
    StateIO sizer;
    s.visitState(sizer);
    const std::size_t scalars = 4 + 8 + 8 + 1 + 1 + 4; // b c d e color 77
    const std::size_t lane = 16 + 5 * 2 + 1 * 9;       // 5 x u16
    const std::size_t free = 16 + 2 * 8 + 1 * 9;       // 2 x u64
    const std::size_t items = 8 + 3 * 4;
    const std::size_t maybe = 1 + 4;
    const std::size_t record = 8 + 8;
    EXPECT_EQ(sizer.size(),
              scalars + lane + free + items + maybe + record);
    EXPECT_LE(bytes.size(), sizer.size());

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
    const ByteBuffer bytes = saveSample(filledSample());

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

    // A count the packed length cannot hold fails without a resize.
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
    ByteBuffer bytes = saveSample(filledSample());
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
        // An owner lane travels as a packed lane of u32 ids.
        Sink sink;
        StateIO ids_io(sink);
        std::vector<std::uint32_t> ids = {StateLinks::kNoSpace, id};
        ids_io.lane(ids);
        struct Owned
        {
            AddressSpace *owner = nullptr;
        };
        std::vector<Owned> owners(2);
        Source owner_src(sink.data().data(), sink.size());
        StateIO owner_io(owner_src, nullptr);
        owner_io.recordLanes(std::span<Owned>(owners),
                             StateIO::owner(&Owned::owner));
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

/** A 12-byte element: packs as u32 words. */
struct Twelve
{
    std::uint32_t a;
    std::uint32_t b;
    std::uint32_t c;
};

/** Lane shapes the packed codec must round-trip. */
enum class Shape
{
    Zero,
    Constant,
    Alternating,
    FewChanges, ///< at most 8 changed words per 64-word block
    Counters,   ///< small per-element counters
    Random,     ///< full-width random words
    AllOnes,
};

constexpr Shape kShapes[] = {Shape::Zero,       Shape::Constant,
                             Shape::Alternating, Shape::FewChanges,
                             Shape::Counters,   Shape::Random,
                             Shape::AllOnes};

constexpr std::size_t kLengths[] = {0,    1,    63,   64,         65,
                                    4095, 4096, 4097, 64 * 64 + 1};

/**
 * @p n elements of @p T whose lane words (detail::LaneWord<T>) follow
 * @p shape; values are truncated to the word width.
 */
template <typename T>
std::vector<T>
shapedLane(Shape shape, std::size_t n)
{
    using Word = detail::LaneWord<T>;
    const std::size_t words = n * sizeof(T) / sizeof(Word);
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    const auto next = [&x] {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return x ^ (x >> 29);
    };
    std::vector<Word> w(words);
    std::uint64_t held = 0x5a5a5a5a5a5a5a5aull;
    for (std::size_t i = 0; i < words; ++i) {
        std::uint64_t v = 0;
        switch (shape) {
          case Shape::Zero:
            break;
          case Shape::Constant:
            v = 0xa5c3a5c3a5c3a5c3ull;
            break;
          case Shape::Alternating:
            v = i % 2 == 0 ? 0x1111222233334444ull : 0xfedcba9876543210ull;
            break;
          case Shape::FewChanges:
            if (i % 8 == 3) // 8 changes per 64 words
                held = next();
            v = held;
            break;
          case Shape::Counters:
            v = (i * 7) % 23;
            break;
          case Shape::Random:
            v = next();
            break;
          case Shape::AllOnes:
            v = ~0ull;
            break;
        }
        w[i] = static_cast<Word>(v);
    }
    std::vector<T> lane(n);
    if (words != 0)
        std::memcpy(lane.data(), w.data(), words * sizeof(Word));
    return lane;
}

template <typename T>
bool
sameBytes(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

template <typename T>
void
expectLaneRoundTrips()
{
    using Word = detail::LaneWord<T>;
    for (const Shape shape : kShapes) {
        for (const std::size_t n : kLengths) {
            const auto tag = ::testing::Message()
                             << sizeof(T) << "-byte elements, shape "
                             << static_cast<int>(shape) << ", n " << n;
            std::vector<T> lane = shapedLane<T>(shape, n);
            Sink sink;
            StateIO save(sink);
            save.podVec(lane);
            StateIO sizer;
            sizer.podVec(lane);
            const std::uint64_t words = n * sizeof(T) / sizeof(Word);
            EXPECT_EQ(sizer.size(),
                      16 + words * sizeof(Word) + (words + 63) / 64 * 9)
                << tag;
            EXPECT_LE(sink.size(), sizer.size()) << tag;

            Source check_src(sink.data().data(), sink.size());
            StateIO check(check_src, nullptr, StateIO::Mode::Check);
            std::vector<T> untouched;
            check.podVec(untouched);
            EXPECT_TRUE(check.exhausted()) << tag;
            EXPECT_TRUE(untouched.empty()) << tag;

            // Into a podVec of another length and into a fixed lane.
            std::vector<T> loaded(3);
            Source load_src(sink.data().data(), sink.size());
            StateIO load(load_src, nullptr);
            load.podVec(loaded);
            EXPECT_TRUE(load.exhausted()) << tag;
            EXPECT_TRUE(sameBytes(loaded, lane)) << tag;

            std::vector<T> fixed(n);
            Source lane_src(sink.data().data(), sink.size());
            StateIO lane_io(lane_src, nullptr);
            lane_io.lane(fixed);
            EXPECT_TRUE(lane_io.exhausted()) << tag;
            EXPECT_TRUE(sameBytes(fixed, lane)) << tag;
        }
    }
}

TEST(PackedLane, RoundTripsEveryWidthShapeAndLength)
{
    expectLaneRoundTrips<std::uint8_t>();
    expectLaneRoundTrips<std::uint16_t>();
    expectLaneRoundTrips<std::uint32_t>();
    expectLaneRoundTrips<std::uint64_t>();
    static_assert(sizeof(Twelve) == 12 &&
                  std::is_same_v<detail::LaneWord<Twelve>, std::uint32_t>);
    expectLaneRoundTrips<Twelve>();
}

/** Packed bytes of @p lane, count and length included. */
template <typename T>
std::size_t
packedBytes(std::vector<T> lane)
{
    Sink sink;
    StateIO io(sink);
    io.podVec(lane);
    return sink.size();
}

TEST(PackedLane, ConstantLanesCollapseAndRandomOnesStayNearRaw)
{
    // 64 blocks: the first holds one nonzero delta (a sparse block,
    // 1 + 8 + 8 bytes), the other 63 are one zero-width header each.
    EXPECT_EQ(packedBytes(shapedLane<std::uint64_t>(Shape::Constant, 4096)),
              16u + 17 + 63);
    EXPECT_EQ(packedBytes(shapedLane<std::uint64_t>(Shape::Zero, 4096)),
              16u + 64);
    // Small counters: one byte per delta plus a header per block.
    EXPECT_EQ(packedBytes(shapedLane<std::uint32_t>(Shape::Counters, 4096)),
              16u + 64 * (1 + 64));
    // Random full-width words: a full-width block, one header byte
    // over raw per 64 words.
    EXPECT_EQ(packedBytes(shapedLane<std::uint64_t>(Shape::Random, 4096)),
              16u + 64 * (1 + 64 * 8));
}

/** A malformed lane must fail Check and Load alike and store nothing. */
void
expectRefused(const char *name, const ByteBuffer &bytes)
{
    for (const StateIO::Mode mode :
         {StateIO::Mode::Check, StateIO::Mode::Load}) {
        std::vector<std::uint32_t> v = {7, 7, 7};
        Source src(bytes.data(), bytes.size());
        StateIO io(src, nullptr, mode);
        io.podVec(v);
        EXPECT_FALSE(io.ok()) << name;
        EXPECT_FALSE(io.mismatched()) << name;
        EXPECT_EQ(v, std::vector<std::uint32_t>(3, 7)) << name;
    }
}

TEST(PackedLane, MalformedLanesFailAndStoreNothing)
{
    std::vector<std::uint32_t> random =
        shapedLane<std::uint32_t>(Shape::Random, 100);
    Sink good;
    StateIO save(good);
    save.podVec(random);
    const ByteBuffer &bytes = good.data();
    ASSERT_EQ(bytes[16], 4u) << "first block should be full width";

    ByteBuffer truncated(bytes.begin(), bytes.end() - 1);
    expectRefused("truncated by one byte", truncated);

    ByteBuffer wide = bytes;
    wide[16] = 5; // a width past the u32 word
    expectRefused("header above the word width", wide);

    // A trailing byte the packed length claims but no block uses.
    ByteBuffer trailing = bytes;
    trailing.push_back(0);
    const std::uint64_t grown = bytes.size() - 16 + 1;
    std::memcpy(trailing.data() + 8, &grown, 8);
    expectRefused("trailing byte", trailing);

    // 65 words: a zero block, then a one-word sparse block whose mask
    // also sets bit 1, past the lane's end.
    Sink past;
    past.u64(65);
    past.u64(1 + 1 + 8 + 4);
    past.u8(0);
    past.u8(detail::kSparseBlock);
    past.u64(0b11);
    past.u32(9);
    expectRefused("sparse mask bit past the end", past.data());

    // A count far beyond what one packed byte can hold (64 words):
    // refused before any allocation of that count.
    Sink huge;
    huge.u64(std::uint64_t{1} << 40);
    huge.u64(1);
    huge.u8(0);
    expectRefused("count larger than the packed bytes hold", huge.data());
    std::vector<std::uint64_t> never;
    Source src(huge.data().data(), huge.size());
    StateIO io(src, nullptr);
    io.podVec(never);
    EXPECT_FALSE(io.ok());
    EXPECT_EQ(never.capacity(), 0u);
}
} // namespace
} // namespace pagesim
