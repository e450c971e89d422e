#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

#include "kv/ycsb_workload.hh"

namespace pagesim
{
namespace
{

KvConfig
smallKv()
{
    KvConfig cfg;
    cfg.items = 5000;
    cfg.itemBytes = 1200;
    cfg.seed = 3;
    return cfg;
}

TEST(KvStore, FootprintCoversBucketsAndSlab)
{
    KvStore store(smallKv());
    EXPECT_EQ(store.slabPages(),
              (5000ull * 1200 + kPageSize - 1) / kPageSize);
    EXPECT_GT(store.bucketPages(), 0u);
    EXPECT_EQ(store.footprintPages(),
              store.bucketPages() + store.slabPages());
}

TEST(KvStore, SlotPermutationIsBijective)
{
    KvStore store(smallKv());
    std::set<std::uint64_t> slots;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        const std::uint64_t slot = store.slotOf(i);
        EXPECT_LT(slot, 5000u);
        EXPECT_TRUE(slots.insert(slot).second) << "duplicate slot";
    }
}

TEST(KvStore, AdjacentItemsScattered)
{
    KvStore store(smallKv());
    // Items 0..9 should not land in 10 consecutive slots.
    bool scattered = false;
    for (std::uint64_t i = 0; i + 1 < 10; ++i)
        scattered |=
            store.slotOf(i + 1) != store.slotOf(i) + 1;
    EXPECT_TRUE(scattered);
}

TEST(KvStore, ItemPagesInsideSlab)
{
    KvStore store(smallKv());
    AddressSpace space(0);
    store.mapInto(space);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        Vpn pages[2];
        const unsigned n = store.itemPagesOf(i, pages);
        ASSERT_GE(n, 1u);
        ASSERT_LE(n, 2u);
        for (unsigned k = 0; k < n; ++k) {
            EXPECT_GE(pages[k], store.slabBase());
            EXPECT_LT(pages[k], store.slabBase() + store.slabPages());
        }
        if (n == 2) {
            EXPECT_EQ(pages[1], pages[0] + 1);
        }
    }
}

TEST(KvStore, SomeItemsStraddlePages)
{
    // 1200-byte items: most pages hold 3.4 items, so straddles exist.
    KvStore store(smallKv());
    AddressSpace space(0);
    store.mapInto(space);
    int straddles = 0;
    for (std::uint64_t i = 0; i < 5000; ++i) {
        Vpn pages[2];
        straddles += store.itemPagesOf(i, pages) == 2;
    }
    EXPECT_GT(straddles, 500);
    EXPECT_LT(straddles, 4000);
}

TEST(KvStore, BucketPagesInsideBucketArray)
{
    KvStore store(smallKv());
    AddressSpace space(0);
    store.mapInto(space);
    for (std::uint64_t k = 0; k < 5000; ++k) {
        const Vpn b = store.bucketPageOf(k);
        EXPECT_GE(b, store.bucketBase());
        EXPECT_LT(b, store.bucketBase() + store.bucketPages());
    }
}

TEST(KvStore, LookupsMatchModuloReference)
{
    // Every item of the Default store against the `%` formulas the
    // FastMod remainders replace; the slab permutation's (a, b) are
    // re-derived exactly as the constructor picks them.
    const KvConfig cfg; // Default: 48,000 items, one bucket per item
    KvStore store(cfg);
    AddressSpace space(0);
    store.mapInto(space);
    const std::uint64_t n = cfg.items;
    const auto buckets = static_cast<std::uint64_t>(
        static_cast<double>(n) / cfg.bucketLoad);
    std::uint64_t a = splitmix64(cfg.seed) % n;
    while (a == 0 || std::gcd(a, n) != 1)
        a = (a + 1) % n;
    const std::uint64_t b = splitmix64(cfg.seed ^ 0xbeef) % n;
    for (std::uint64_t item = 0; item < n; ++item) {
        const std::uint64_t bucket = splitmix64(item ^ cfg.seed) % buckets;
        ASSERT_EQ(store.bucketPageOf(item),
                  store.bucketBase() + bucket * 8 / kPageSize);
        ASSERT_EQ(store.slotOf(item), (a * item + b) % n);
    }
}

TEST(YcsbMixes, ReadFractions)
{
    EXPECT_DOUBLE_EQ(ycsbReadFraction(YcsbMix::A), 0.5);
    EXPECT_DOUBLE_EQ(ycsbReadFraction(YcsbMix::B), 0.95);
    EXPECT_DOUBLE_EQ(ycsbReadFraction(YcsbMix::C), 1.0);
    EXPECT_EQ(ycsbMixName(YcsbMix::A), "YCSB-A");
}

TEST(YcsbWorkload, StreamShapeAndMix)
{
    YcsbConfig cfg;
    cfg.kv = smallKv();
    cfg.mix = YcsbMix::A;
    cfg.threads = 2;
    cfg.requestsPerItem = 2.0;
    YcsbWorkload wl(cfg);
    AddressSpace space(0);
    WorkloadContext ctx;
    ctx.space = &space;
    wl.build(ctx);

    auto stream = wl.stream(0);
    Op op;
    std::uint64_t loads = 0, reads = 0, writes = 0;
    bool saw_phase = false, saw_barrier = false;
    while (stream->next(op)) {
        switch (op.kind) {
          case Op::Kind::RequestStart:
            (op.id == kYcsbRead ? reads : writes) += 1;
            break;
          case Op::Kind::Phase:
            saw_phase = true;
            break;
          case Op::Kind::Barrier:
            saw_barrier = true;
            break;
          case Op::Kind::Touch:
            if (!saw_phase)
                ++loads;
            EXPECT_TRUE(space.table().at(op.vpn).mapped());
            break;
          default:
            break;
        }
    }
    EXPECT_TRUE(saw_barrier);
    EXPECT_TRUE(saw_phase);
    // Thread 0 loads half the items (x >= 2 touches each).
    EXPECT_GE(loads, 2500u);
    // 2 requests per item over 2 threads = 5000 per thread.
    EXPECT_EQ(reads + writes, 5000u);
    // Mix A is ~50/50.
    EXPECT_NEAR(static_cast<double>(reads) / (reads + writes), 0.5,
                0.05);
}

TEST(YcsbWorkload, ZipfianRequestSkew)
{
    YcsbConfig cfg;
    cfg.kv = smallKv();
    cfg.mix = YcsbMix::C;
    cfg.threads = 1;
    cfg.requestsPerItem = 4.0;
    YcsbWorkload wl(cfg);
    AddressSpace space(0);
    WorkloadContext ctx;
    ctx.space = &space;
    wl.build(ctx);
    auto stream = wl.stream(0);
    Op op;
    std::map<Vpn, int> touch_counts;
    bool measuring = false;
    while (stream->next(op)) {
        if (op.kind == Op::Kind::Phase)
            measuring = true;
        if (measuring && op.kind == Op::Kind::Touch)
            ++touch_counts[op.vpn];
    }
    // Hot pages exist: the max-touched slab page dwarfs the median.
    std::vector<int> counts;
    for (const auto &[vpn, c] : touch_counts)
        counts.push_back(c);
    std::sort(counts.begin(), counts.end());
    EXPECT_GT(counts.back(), 5 * counts[counts.size() / 2]);
}

TEST(YcsbWorkload, RecordsLatenciesOnlyAfterMeasurementStarts)
{
    YcsbConfig cfg;
    cfg.kv = smallKv();
    YcsbWorkload wl(cfg);
    wl.recordRequest(kYcsbRead, 100);
    EXPECT_EQ(wl.readLatency().count(), 0u) << "pre-measurement";
    wl.phaseReached(0, 1, 12345);
    wl.recordRequest(kYcsbRead, 100);
    wl.recordRequest(kYcsbWrite, 200);
    EXPECT_EQ(wl.readLatency().count(), 1u);
    EXPECT_EQ(wl.writeLatency().count(), 1u);
    EXPECT_EQ(wl.measureStart(), 12345u);
}

TEST(YcsbWorkload, MixCIssuesNoWrites)
{
    YcsbConfig cfg;
    cfg.kv = smallKv();
    cfg.mix = YcsbMix::C;
    cfg.threads = 1;
    cfg.requestsPerItem = 1.0;
    YcsbWorkload wl(cfg);
    AddressSpace space(0);
    WorkloadContext ctx;
    ctx.space = &space;
    wl.build(ctx);
    auto stream = wl.stream(0);
    Op op;
    int writes = 0;
    while (stream->next(op))
        if (op.kind == Op::Kind::RequestStart && op.id == kYcsbWrite)
            ++writes;
    EXPECT_EQ(writes, 0);
}

} // namespace
} // namespace pagesim
