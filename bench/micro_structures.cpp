/**
 * @file
 * Microbenchmarks (google-benchmark) for the core data structures the
 * characterization rests on: the Bloom filter, generation-list moves,
 * page-table walks, the zipfian generator and the KV store's lookup
 * math behind YCSB op generation, the YCSB draw table's cold build,
 * op-stream draining, the latency histogram, and the event queue.
 * These establish that the paper's "O(1) generation move" claim holds
 * in this implementation and quantify per-op costs.
 */

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "harness/experiment.hh"
#include "kv/kv_store.hh"
#include "kv/ycsb_draws.hh"
#include "mem/address_space.hh"
#include "mem/frame_table.hh"
#include "policy/mglru/bloom_filter.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "stats/histogram.hh"
#include "workload/access_pattern.hh"

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
    for (Vpn v = 0; v < 4096; ++v) {
        const Pfn pfn = frames.allocate(&space, v, false);
        if (pfn == kInvalidPfn)
            std::abort();
        a.pushBack(pfn);
    }
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

void
BM_FrameTableChurn(benchmark::State &state)
{
    // Release/allocate churn on the live FrameTable: release returns a
    // frame to the free list and allocate resets its whole record (the
    // balloon and fault paths' per-frame cost). The stride walks the
    // table like LIFO recycling after scattered frees.
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
BENCHMARK(BM_FrameTableChurn);

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
BENCHMARK(BM_ZipfianDraw)->Arg(1000)->Arg(48000)->Arg(100000);

void
BM_KvStoreLookup(benchmark::State &state)
{
    // The per-request layout math: bucket page plus slab page(s) of
    // one item of the Default store (48,000 items).
    const KvStore store{KvConfig{}};
    const std::uint64_t n = store.items();
    std::uint64_t item = 0, acc = 0;
    for (auto _ : state) {
        // A prime stride visits every item without a divide here.
        if ((item += 7919) >= n)
            item -= n;
        Vpn pages[2];
        acc ^= store.bucketPageOf(item);
        acc ^= pages[store.itemPagesOf(item, pages) - 1];
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_KvStoreLookup);

void
BM_YcsbStreamDrain(benchmark::State &state)
{
    // One YCSB-A Default thread's whole op stream (load shard,
    // barrier, zipfian requests), replayed from its draw table, which
    // the first iteration builds; time_per_op is per stream op.
    const auto wl = makeWorkload(WorkloadKind::YcsbA, ScalePreset::Default);
    std::uint64_t ops = 0;
    for (auto _ : state) {
        auto stream = wl->stream(0);
        Op op;
        while (stream->next(op))
            ++ops;
    }
    benchmark::DoNotOptimize(ops);
    state.counters["time_per_op"] = benchmark::Counter(
        static_cast<double>(ops),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_YcsbStreamDrain)->Unit(benchmark::kMillisecond);

void
BM_YcsbDrawsBuild(benchmark::State &state)
{
    // The cold draw table of one YCSB Default thread (120,000 zipfian
    // requests), built through the un-memoized constructor: what the
    // first trial of a process pays per thread. time_per_request is
    // per drawn request.
    const YcsbDrawKey key = YcsbDrawKey::of(YcsbConfig{}, 0);
    std::uint64_t requests = 0;
    std::size_t bytes = 0;
    for (auto _ : state) {
        const YcsbDraws draws(key);
        requests += draws.requests();
        bytes = draws.bytes();
    }
    state.counters["table_bytes"] = static_cast<double>(bytes);
    state.counters["time_per_request"] = benchmark::Counter(
        static_cast<double>(requests),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_YcsbDrawsBuild)->Unit(benchmark::kMillisecond);

void
BM_PatternStreamDrain(benchmark::State &state)
{
    // A PatternStream draining 64K-op runs of one segment kind: 0 =
    // SeqTouch, 1 = scrambled zipfian RandTouch over 1M pages, 2 =
    // IndexedTouch over a 4K-page list. time_per_op is per stream op.
    constexpr std::uint64_t kRun = 1u << 16;
    std::vector<std::uint32_t> offsets(kRun);
    Rng rng(17);
    for (std::uint32_t &o : offsets)
        o = static_cast<std::uint32_t>(rng.uniformInt(0, 4095));
    RandTouch zipf;
    zipf.span = 1u << 20;
    zipf.count = kRun;
    zipf.zipfTheta = ZipfianGenerator::kDefaultTheta;
    const Segment segments[] = {
        SeqTouch{0, kRun, false, false, 0},
        zipf,
        IndexedTouch{offsets.data(), kRun, 0, false, 0},
    };
    const Segment &seg = segments[state.range(0)];
    static const char *const kLabels[] = {"seq", "zipf", "indexed"};
    state.SetLabel(kLabels[state.range(0)]);
    std::uint64_t ops = 0;
    for (auto _ : state) {
        PatternStream stream({seg, seg, seg, seg});
        Op op;
        while (stream.next(op))
            ++ops;
        benchmark::DoNotOptimize(op);
    }
    state.counters["time_per_op"] = benchmark::Counter(
        static_cast<double>(ops),
        benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_PatternStreamDrain)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

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
// packing the page-table lanes and the frame records through
// Sink/Source. These pin the round-trip rate at the Small end and at
// the Big64M design point, so a regression in the lane codec shows up
// here before it shows up as a slow sweep. Rates are over the lanes'
// unpacked (input) bytes, so they stay comparable across encodings.

/** @p obj's checkpointed bytes with every lane at its raw width. */
template <typename T>
std::int64_t
unpackedBytes(T &obj)
{
    StateIO sizer;
    obj.visitState(sizer);
    return static_cast<std::int64_t>(sizer.unpackedSize());
}

void
BM_AddressSpaceCapture(benchmark::State &state)
{
    AddressSpace space(0);
    space.map("lanes", static_cast<std::uint64_t>(state.range(0)));
    for (auto _ : state) {
        Sink sink;
        StateIO io(sink);
        space.visitState(io);
        benchmark::DoNotOptimize(sink.data().data());
    }
    state.SetBytesProcessed(state.iterations() * unpackedBytes(space));
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
    state.SetBytesProcessed(state.iterations() * unpackedBytes(space));
}
BENCHMARK(BM_AddressSpaceRestore)->Arg(1 << 20)->Arg(1 << 26);

void
BM_FrameTableCapture(benchmark::State &state)
{
    FrameTable frames(static_cast<std::uint64_t>(state.range(0)));
    const StateLinks links;
    for (auto _ : state) {
        Sink sink;
        StateIO io(sink, &links);
        frames.visitState(io);
        benchmark::DoNotOptimize(sink.data().data());
    }
    state.SetBytesProcessed(state.iterations() * unpackedBytes(frames));
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
    state.SetBytesProcessed(state.iterations() * unpackedBytes(frames));
}
BENCHMARK(BM_FrameTableRestore)->Arg(1 << 20)->Arg(1 << 25);

} // namespace

BENCHMARK_MAIN();
