/**
 * @file
 * Microbenchmarks (google-benchmark) for the core data structures the
 * characterization rests on: the Bloom filter, generation-list moves,
 * page-table walks, the zipfian generator, the latency histogram, and
 * the event queue. These establish that the paper's "O(1) generation
 * move" claim holds in this implementation and quantify per-op costs.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "mem/address_space.hh"
#include "mem/frame_table.hh"
#include "policy/mglru/bloom_filter.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "stats/histogram.hh"

namespace
{

using namespace pagesim;

void
BM_BloomFilterAdd(benchmark::State &state)
{
    RegionBloomFilter filter(1u << 15, 2, 42);
    std::uint64_t r = 0;
    for (auto _ : state) {
        filter.add(r++);
        if ((r & 0xfff) == 0)
            filter.clear();
    }
}
BENCHMARK(BM_BloomFilterAdd);

void
BM_BloomFilterTest(benchmark::State &state)
{
    RegionBloomFilter filter(1u << 15, 2, 42);
    for (std::uint64_t r = 0; r < 1024; ++r)
        filter.add(r * 3);
    std::uint64_t r = 0;
    bool acc = false;
    for (auto _ : state)
        acc ^= filter.maybeContains(r++);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_BloomFilterTest);

void
BM_FrameListMove(benchmark::State &state)
{
    // The O(1) generation-move operation (paper Sec. V-B).
    FrameTable frames(4096);
    AddressSpace space(0);
    space.map("m", 4096);
    FrameList a(frames, 1), b(frames, 2);
    for (Vpn v = 0; v < 4096; ++v)
        a.pushBack(frames.allocate(&space, v, false));
    bool in_a = true;
    for (auto _ : state) {
        FrameList &from = in_a ? a : b;
        FrameList &to = in_a ? b : a;
        const Pfn pfn = from.popBack();
        to.pushFront(pfn);
        if (from.empty())
            in_a = !in_a;
    }
}
BENCHMARK(BM_FrameListMove);

/**
 * AoS replica of the page metadata record FrameTable used to hold per
 * frame, for the allocate-reset comparison below. Kept local to the
 * bench: the live tree is SoA-only.
 */
struct LegacyPageInfo
{
    AddressSpace *space = nullptr;
    Vpn vpn = 0;
    Pfn prev = kInvalidPfn;
    Pfn next = kInvalidPfn;
    std::uint8_t listId = 0;
    std::uint64_t gen = 0;
    std::uint8_t tier = 0;
    bool file = false;
    bool fromReadahead = false;
    SwapSlot backing = kInvalidSlot;
    std::uint32_t refs = 0;
};

void
BM_PageInfoResetAos(benchmark::State &state)
{
    // Release/allocate churn against an AoS array: each allocate
    // resets one whole record wherever the free list points,
    // dirtying that record's cache line(s). Mirrors the SoA bench's
    // free-list handling so only the layout differs.
    std::vector<LegacyPageInfo> infos(1u << 16);
    std::vector<Pfn> freeList;
    AddressSpace space(0);
    Pfn pfn = 0;
    for (auto _ : state) {
        freeList.push_back(pfn);
        const Pfn got = freeList.back();
        freeList.pop_back();
        LegacyPageInfo &pi = infos[got];
        pi.space = &space;
        pi.vpn = got;
        pi.prev = kInvalidPfn;
        pi.next = kInvalidPfn;
        pi.listId = 0;
        pi.gen = 0;
        pi.tier = 0;
        pi.file = false;
        pi.fromReadahead = false;
        pi.backing = kInvalidSlot;
        pi.refs = 0;
        benchmark::DoNotOptimize(infos.data());
        pfn = (pfn + 4097) & 0xffff; // LIFO-recycle-like stride
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageInfoResetAos);

void
BM_PageInfoResetSoa(benchmark::State &state)
{
    // The live path: FrameTable release + allocate, where allocate
    // resets the same logical record lane by lane (resetLanes). Same
    // stride and free-list discipline as the AoS bench.
    FrameTable frames(1u << 16);
    AddressSpace space(0);
    for (std::uint32_t i = 0; i < (1u << 16); ++i)
        frames.allocate(&space, i, false);
    Pfn pfn = 0;
    for (auto _ : state) {
        frames.release(pfn);
        benchmark::DoNotOptimize(frames.allocate(&space, pfn, false));
        pfn = (pfn + 4097) & 0xffff;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageInfoResetSoa);

void
BM_PageTableScanRegion(benchmark::State &state)
{
    AddressSpace space(0);
    space.map("scan", 1u << 16);
    PageTable &table = space.table();
    const Vpn base = space.vmas().front().start;
    for (Vpn v = base; v < base + (1u << 16); v += 2)
        table.at(v).setFlag(Pte::Accessed);
    std::uint64_t region = regionOf(base);
    const std::uint64_t end = regionOf(base + (1u << 16)) - 1;
    for (auto _ : state) {
        std::uint64_t young = 0;
        const Vpn rb = regionBase(region);
        for (Vpn v = rb; v < rb + kPtesPerRegion; ++v) {
            const auto pte = table.at(v);
            if (pte.testAndClearAccessed()) {
                ++young;
                pte.setFlag(Pte::Accessed); // restore for next iter
            }
        }
        benchmark::DoNotOptimize(young);
        if (++region >= end)
            region = regionOf(base);
    }
    state.SetItemsProcessed(state.iterations() * kPtesPerRegion);
}
BENCHMARK(BM_PageTableScanRegion);

void
BM_ZipfianDraw(benchmark::State &state)
{
    Rng rng(7);
    ZipfianGenerator zipf(static_cast<std::uint64_t>(state.range(0)),
                          0.99, true);
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc ^= zipf.next(rng);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_ZipfianDraw)->Arg(1000)->Arg(100000);

void
BM_HistogramRecord(benchmark::State &state)
{
    LatencyHistogram hist;
    Rng rng(9);
    for (auto _ : state)
        hist.record(rng.uniformInt(100, 10000000));
    benchmark::DoNotOptimize(hist.count());
}
BENCHMARK(BM_HistogramRecord);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    EventQueue events;
    std::uint64_t fired = 0;
    for (auto _ : state) {
        events.scheduleAfter(10, [&fired] { ++fired; });
        events.runOne();
    }
    benchmark::DoNotOptimize(fired);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_EventQueueChurn(benchmark::State &state)
{
    // Actor-like steady state: many outstanding self-rescheduling
    // events with mixed deltas — the calendar queue's design point
    // (BM_EventQueueScheduleRun above only ever has one pending).
    EventQueue events;
    const unsigned outstanding =
        static_cast<unsigned>(state.range(0));
    Rng rng(11);
    std::uint64_t fired = 0;
    std::function<void()> pump = [&] {
        ++fired;
        const SimDuration d = rng.uniformInt(1000, 200000);
        events.scheduleAfter(d, [&pump] { pump(); });
    };
    for (unsigned i = 0; i < outstanding; ++i)
        events.scheduleAfter(i, [&pump] { pump(); });
    for (auto _ : state)
        events.runOne();
    benchmark::DoNotOptimize(fired);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurn)->Arg(64)->Arg(2048);

void
BM_RngNextU64(benchmark::State &state)
{
    Rng rng(3);
    std::uint64_t acc = 0;
    for (auto _ : state)
        acc ^= rng.nextU64();
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngNextU64);

// --- Checkpoint serializer throughput -------------------------------
// The fast-forward path's cost model: a checkpoint is dominated by
// streaming the page-table and frame-table SoA lanes through
// Sink/Source. These pin the round-trip rate (bytes/second) at the
// Small end and at the Big64M design point, so a regression in the
// raw serializers shows up here before it shows up as a slow sweep.

void
BM_AddressSpaceCapture(benchmark::State &state)
{
    AddressSpace space(0);
    space.map("lanes", static_cast<std::uint64_t>(state.range(0)));
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        Sink sink;
        StateIO io(sink);
        space.visitState(io);
        bytes = sink.size();
        benchmark::DoNotOptimize(sink.data().data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_AddressSpaceCapture)->Arg(1 << 20)->Arg(1 << 26);

void
BM_AddressSpaceRestore(benchmark::State &state)
{
    const std::uint64_t pages =
        static_cast<std::uint64_t>(state.range(0));
    AddressSpace space(0);
    space.map("lanes", pages);
    Sink sink;
    StateIO save(sink);
    space.visitState(save);
    // Restore requires an identically replayed layout (the nextVpn_
    // check the checkpoint machinery leans on).
    AddressSpace target(0);
    target.map("lanes", pages);
    for (auto _ : state) {
        Source src(sink.data().data(), sink.size());
        StateIO io(src, nullptr);
        target.visitState(io);
        benchmark::DoNotOptimize(io.exhausted());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * sink.size()));
}
BENCHMARK(BM_AddressSpaceRestore)->Arg(1 << 20)->Arg(1 << 26);

void
BM_FrameTableCapture(benchmark::State &state)
{
    FrameTable frames(static_cast<std::uint64_t>(state.range(0)));
    const StateLinks links;
    std::uint64_t bytes = 0;
    for (auto _ : state) {
        Sink sink;
        StateIO io(sink, &links);
        frames.visitState(io);
        bytes = sink.size();
        benchmark::DoNotOptimize(sink.data().data());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_FrameTableCapture)->Arg(1 << 20)->Arg(1 << 25);

void
BM_FrameTableRestore(benchmark::State &state)
{
    const std::uint64_t n = static_cast<std::uint64_t>(state.range(0));
    FrameTable frames(n);
    const StateLinks links;
    Sink sink;
    StateIO save(sink, &links);
    frames.visitState(save);
    FrameTable target(n);
    for (auto _ : state) {
        Source src(sink.data().data(), sink.size());
        StateIO io(src, &links);
        target.visitState(io);
        benchmark::DoNotOptimize(&target);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations() * sink.size()));
}
BENCHMARK(BM_FrameTableRestore)->Arg(1 << 20)->Arg(1 << 25);

} // namespace

BENCHMARK_MAIN();
