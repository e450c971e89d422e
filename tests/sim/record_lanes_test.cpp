/**
 * @file
 * StateIO::recordLanes: a record array travels as one packed lane per
 * field, swept once. Its bytes must equal what lane() writes for each
 * field gathered into a vector of its own (owner pointers as a u32 lane
 * of link-table ids), so the frame table's image is the same whatever
 * its in-memory layout. Decoding must restore every field and refuse a
 * malformed image before it writes any record.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "mem/address_space.hh"
#include "sim/serialize.hh"

namespace pagesim
{
namespace
{

/** A frame-record-shaped test record: every field width, no padding. */
struct Rec
{
    AddressSpace *owner;
    std::uint64_t page;
    std::uint64_t age;
    std::uint32_t left;
    std::uint32_t right;
    std::uint32_t slot;
    std::uint32_t uses;
    std::uint32_t group;
    std::uint8_t tag;
    std::uint8_t level;
    std::uint8_t kind;
    std::uint8_t flag;
};
static_assert(sizeof(Rec) == 48);

void
visitRecs(StateIO &io, std::vector<Rec> &recs)
{
    io.recordLanes(std::span<Rec>(recs), StateIO::owner(&Rec::owner),
                   &Rec::page, &Rec::left, &Rec::right, &Rec::tag,
                   &Rec::age, &Rec::level, &Rec::kind, &Rec::flag,
                   &Rec::slot, &Rec::uses, &Rec::group);
}

/** Field @p member of every record, in record order. */
template <typename T>
std::vector<T>
gather(const std::vector<Rec> &recs, T Rec::*member)
{
    std::vector<T> out;
    for (const Rec &r : recs)
        out.push_back(r.*member);
    return out;
}

/**
 * The oracle: each field gathered into a vector and written with
 * lane(), owners as link-table ids, in visitRecs's field order.
 */
void
visitOracle(StateIO &io, const std::vector<Rec> &recs,
            const StateLinks &links)
{
    std::vector<std::uint32_t> ids;
    for (const Rec &r : recs)
        ids.push_back(r.owner == nullptr ? StateLinks::kNoSpace
                                         : links.spaceId(r.owner));
    io.lane(ids);
    auto page = gather(recs, &Rec::page);
    auto left = gather(recs, &Rec::left);
    auto right = gather(recs, &Rec::right);
    auto tag = gather(recs, &Rec::tag);
    auto age = gather(recs, &Rec::age);
    auto level = gather(recs, &Rec::level);
    auto kind = gather(recs, &Rec::kind);
    auto flag = gather(recs, &Rec::flag);
    auto slot = gather(recs, &Rec::slot);
    auto uses = gather(recs, &Rec::uses);
    auto group = gather(recs, &Rec::group);
    io.lane(page);
    io.lane(left);
    io.lane(right);
    io.lane(tag);
    io.lane(age);
    io.lane(level);
    io.lane(kind);
    io.lane(flag);
    io.lane(slot);
    io.lane(uses);
    io.lane(group);
}

/** splitmix64: a seeded, portable stream for field values. */
struct Mix
{
    std::uint64_t x;

    std::uint64_t
    next()
    {
        std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }
};

/**
 * @p n records with the shapes frame lanes take: owner runs (free
 * frames and the balloon among them), near-sequential pages, random
 * links, small counters, sparse flags and mostly-constant fields.
 */
std::vector<Rec>
randomRecs(std::size_t n, std::uint64_t seed, const StateLinks &links)
{
    Mix mix{seed};
    std::vector<Rec> recs(n);
    AddressSpace *owner = nullptr;
    for (std::size_t i = 0; i < n; ++i) {
        if (mix.next() % 16 == 0) {
            const std::uint64_t pick = mix.next() % (links.spaces.size() + 2);
            owner = pick < links.spaces.size() ? links.spaces[pick]
                    : pick == links.spaces.size() ? links.balloon
                                                  : nullptr;
        }
        Rec &r = recs[i];
        r.owner = owner;
        r.page = i * 3 + mix.next() % 4;
        r.age = 1000 + mix.next() % 4;
        r.left = static_cast<std::uint32_t>(mix.next());
        r.right = static_cast<std::uint32_t>(mix.next() % n);
        r.slot = mix.next() % 2 ? 0xFFFFFFFFu
                                : static_cast<std::uint32_t>(mix.next());
        r.uses = static_cast<std::uint32_t>(mix.next() % 5);
        r.group = mix.next() % 64 == 0 ? 1u : 0u;
        r.tag = static_cast<std::uint8_t>(1 + mix.next() % 3);
        r.level = static_cast<std::uint8_t>(mix.next() % 100 == 0);
        r.kind = 0;
        r.flag = static_cast<std::uint8_t>(mix.next() % 7 == 0);
    }
    return recs;
}

/** Records that no decode may have touched. */
std::vector<Rec>
sentinels(std::size_t n)
{
    std::vector<Rec> recs(n);
    // An empty vector's data() may be null, which memset must not get.
    if (n > 0)
        std::memset(recs.data(), 0x5a, n * sizeof(Rec));
    return recs;
}

bool
sameBytes(const std::vector<Rec> &a, const std::vector<Rec> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(Rec)) == 0);
}

class RecordLanes : public ::testing::Test
{
  protected:
    RecordLanes()
    {
        links.spaces = {&s0, &s1, &s2};
        links.balloon = &balloon;
    }

    ByteBuffer
    save(std::vector<Rec> &recs) const
    {
        Sink sink;
        StateIO io(sink, &links);
        visitRecs(io, recs);
        return std::move(sink).take();
    }

    /** Decode @p bytes into @p recs in @p mode; the archive's verdict. */
    StateIO
    decode(const ByteBuffer &bytes, std::vector<Rec> &recs,
           StateIO::Mode mode) const
    {
        src = std::make_unique<Source>(bytes.data(), bytes.size());
        StateIO io(*src, &links, mode);
        visitRecs(io, recs);
        return io;
    }

    AddressSpace s0{0};
    AddressSpace s1{1};
    AddressSpace s2{2};
    AddressSpace balloon{0xBA11};
    StateLinks links;
    mutable std::unique_ptr<Source> src;
};

TEST_F(RecordLanes, SaveMatchesPerFieldLanesAndLoadRestoresEveryField)
{
    for (const std::size_t n : {0, 1, 63, 64, 65, 4097}) {
        std::vector<Rec> recs = randomRecs(n, 17 + n, links);
        const ByteBuffer bytes = save(recs);

        Sink oracle;
        StateIO oracle_io(oracle, &links);
        visitOracle(oracle_io, recs, links);
        EXPECT_EQ(bytes, oracle.data()) << n << " records";

        StateIO sizer;
        visitRecs(sizer, recs);
        StateIO oracle_sizer;
        visitOracle(oracle_sizer, recs, links);
        EXPECT_EQ(sizer.size(), oracle_sizer.size()) << n;
        EXPECT_EQ(sizer.unpackedSize(), oracle_sizer.unpackedSize()) << n;
        EXPECT_LE(bytes.size(), sizer.size()) << n;

        std::vector<Rec> checked = sentinels(n);
        const StateIO check = decode(bytes, checked, StateIO::Mode::Check);
        EXPECT_TRUE(check.exhausted()) << n;
        EXPECT_TRUE(sameBytes(checked, sentinels(n))) << n;

        std::vector<Rec> loaded = sentinels(n);
        const StateIO load = decode(bytes, loaded, StateIO::Mode::Load);
        EXPECT_TRUE(load.exhausted()) << n;
        EXPECT_TRUE(sameBytes(loaded, recs)) << n;
    }
}

TEST_F(RecordLanes, MalformedImagesAreRefusedBeforeAnyRecordIsWritten)
{
    constexpr std::size_t kN = 4097;
    std::vector<Rec> recs = randomRecs(kN, 5, links);
    const ByteBuffer good = save(recs);

    // The image ends inside the sixth lane.
    std::size_t off = 0;
    for (int lane = 0; lane < 5; ++lane) {
        std::uint64_t len = 0;
        std::memcpy(&len, good.data() + off + 8, 8);
        off += 16 + len;
    }
    const ByteBuffer truncated(good.begin(),
                               good.begin() + static_cast<long>(off + 20));

    // The last record's owner id names no space.
    Sink bad_owner;
    {
        StateIO io(bad_owner, &links);
        std::vector<std::uint32_t> ids(kN, 0);
        ids.back() = 7;
        io.lane(ids);
        Sink rest;
        StateIO rest_io(rest, &links);
        visitOracle(rest_io, recs, links);
        std::uint64_t owner_len = 0;
        std::memcpy(&owner_len, rest.data().data() + 8, 8);
        bad_owner.bytes(rest.data().data() + 16 + owner_len,
                        rest.size() - 16 - owner_len);
    }

    for (const StateIO::Mode mode :
         {StateIO::Mode::Check, StateIO::Mode::Load}) {
        std::vector<Rec> target = sentinels(kN);
        StateIO io = decode(truncated, target, mode);
        EXPECT_FALSE(io.ok());
        EXPECT_FALSE(io.mismatched());
        EXPECT_TRUE(sameBytes(target, sentinels(kN))) << "truncated";

        std::vector<Rec> longer = sentinels(kN + 1);
        io = decode(good, longer, mode);
        EXPECT_TRUE(io.mismatched());
        EXPECT_TRUE(sameBytes(longer, sentinels(kN + 1))) << "count";

        io = decode(bad_owner.data(), target, mode);
        EXPECT_FALSE(io.ok());
        EXPECT_FALSE(io.mismatched());
        EXPECT_TRUE(sameBytes(target, sentinels(kN))) << "owner id";
    }
}

} // namespace
} // namespace pagesim
