/**
 * @file
 * Block streams against per-op oracles.
 *
 * PatternStream and YcsbStream hand out ops a block at a time, but
 * their op sequences and checkpoint images must be exactly those of
 * the per-op streams they replaced. The oracles below are copies of
 * those per-op streams: PatternStream's variant dispatch per op, and
 * YcsbStream's std::vector queue plus head, drawing every request live
 * from its zipfian generator. Random segment lists and YCSB workloads
 * are drained through both; the two images must be byte-identical
 * wherever they are taken, and a stream restored from the block
 * stream's image must continue exactly like the oracle.
 *
 * YcsbStream replays its requests from a process-wide draw table
 * (kv/ycsb_draws.hh); the tests at the end pin that table's key, its
 * generator snapshots and its concurrent first use.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <latch>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "kv/ycsb_draws.hh"
#include "kv/ycsb_workload.hh"
#include "mem/address_space.hh"
#include "sim/rng.hh"
#include "sim/serialize.hh"
#include "workload/access_pattern.hh"

namespace pagesim
{
namespace
{

/** The per-op PatternStream: one variant dispatch per op. */
class OraclePatternStream
{
  public:
    explicit OraclePatternStream(std::vector<Segment> segments)
        : segments_(std::move(segments))
    {
    }

    bool
    next(Op &op)
    {
        while (index_ < segments_.size()) {
            Segment &seg = segments_[index_];
            if (auto *seq = std::get_if<SeqTouch>(&seg)) {
                if (emitted_ >= seq->count) {
                    advanceSegment();
                    continue;
                }
                const Vpn vpn = seq->base + emitted_;
                ++emitted_;
                op = seq->fd ? Op::makeFdTouch(vpn, seq->write)
                             : Op::makeTouch(vpn, seq->write);
                op.compute = seq->computePerPage;
                return true;
            }
            if (auto *rand = std::get_if<RandTouch>(&seg)) {
                if (emitted_ >= rand->count) {
                    advanceSegment();
                    continue;
                }
                if (!rng_)
                    rng_.emplace(rand->seed);
                std::uint64_t offset;
                if (rand->zipfTheta > 0.0 && rand->span > 1) {
                    if (!zipf_) {
                        zipf_ = std::make_unique<ZipfianGenerator>(
                            rand->span, rand->zipfTheta, rand->scrambled);
                    }
                    offset = zipf_->next(*rng_);
                } else {
                    offset = rand->span > 1
                                 ? rng_->uniformInt(0, rand->span - 1)
                                 : 0;
                }
                ++emitted_;
                op = rand->fd ? Op::makeFdTouch(rand->base + offset,
                                                rand->write)
                              : Op::makeTouch(rand->base + offset,
                                              rand->write);
                op.compute = rand->computePerTouch;
                return true;
            }
            if (auto *idx = std::get_if<IndexedTouch>(&seg)) {
                if (emitted_ >= idx->count) {
                    advanceSegment();
                    continue;
                }
                const Vpn vpn = idx->base + idx->offsets[emitted_];
                ++emitted_;
                op = Op::makeTouch(vpn, idx->write);
                op.compute = idx->computePerTouch;
                return true;
            }
            if (auto *comp = std::get_if<ComputeSeg>(&seg)) {
                op = Op::makeCompute(comp->ns);
                advanceSegment();
                return true;
            }
            if (auto *bar = std::get_if<BarrierSeg>(&seg)) {
                op = Op::makeBarrier(bar->id);
                advanceSegment();
                return true;
            }
            if (auto *phase = std::get_if<PhaseSeg>(&seg)) {
                op = Op::makePhase(phase->id);
                advanceSegment();
                return true;
            }
            advanceSegment();
        }
        return false;
    }

    void
    visitState(StateIO &io)
    {
        io.u64(index_);
        io.u64(emitted_);
        io.optional(rng_, Rng(1));
        if (io.loading())
            zipf_.reset();
    }

  private:
    void
    advanceSegment()
    {
        ++index_;
        emitted_ = 0;
        rng_.reset();
        zipf_.reset();
    }

    // lint:state-cov-ok(segment list is the construction input, replayed from the workload spec)
    std::vector<Segment> segments_;
    std::size_t index_ = 0;
    std::uint64_t emitted_ = 0;
    std::optional<Rng> rng_;
    std::unique_ptr<ZipfianGenerator> zipf_;
};

/** @p obj's checkpoint image. */
template <typename T>
ByteBuffer
imageOf(T &obj)
{
    Sink sink;
    StateIO io(sink);
    obj.visitState(io);
    return sink.data();
}

/** Restore @p obj from @p image; true when it decoded cleanly. */
template <typename T>
bool
restoreFrom(T &obj, const ByteBuffer &image)
{
    Source check_src(image.data(), image.size());
    StateIO check(check_src, nullptr, StateIO::Mode::Check);
    obj.visitState(check);
    if (!check.exhausted())
        return false;
    Source src(image.data(), image.size());
    StateIO io(src, nullptr);
    obj.visitState(io);
    return io.exhausted();
}

::testing::AssertionResult
sameOp(const Op &a, const Op &b)
{
    if (a.kind == b.kind && a.write == b.write && a.id == b.id &&
        a.vpn == b.vpn && a.compute == b.compute)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "kind " << int(a.kind) << "/" << int(b.kind) << " vpn "
           << a.vpn << "/" << b.vpn << " write " << a.write << "/"
           << b.write << " id " << a.id << "/" << b.id << " compute "
           << a.compute << "/" << b.compute;
}

/**
 * Drain @p got against @p want to the end: every op equal, and both
 * end together.
 */
template <typename Oracle>
::testing::AssertionResult
continuesLike(OpStream &got, Oracle &want)
{
    Op a, b;
    for (std::uint64_t i = 0;; ++i) {
        const bool more_a = got.next(a);
        const bool more_b = want.next(b);
        if (more_a != more_b)
            return ::testing::AssertionFailure()
                   << "streams end apart at op " << i;
        if (!more_a)
            return ::testing::AssertionSuccess();
        if (auto same = sameOp(a, b); !same)
            return same << " at op " << i;
    }
}

/** Random segment lists over every segment kind and edge case. */
class SegmentFactory
{
  public:
    explicit SegmentFactory(std::uint64_t seed) : rng_(seed) {}

    std::vector<Segment>
    program(unsigned segments)
    {
        std::vector<Segment> out;
        for (unsigned i = 0; i < segments; ++i)
            out.push_back(segment());
        return out;
    }

  private:
    /** Run lengths around the block size, zero included. */
    std::uint64_t
    count()
    {
        static const std::uint64_t kCounts[] = {0,  1,  2,   63,  64,
                                                65, 127, 128, 200, 300};
        return kCounts[rng_.uniformInt(0, std::size(kCounts) - 1)];
    }

    Segment
    segment()
    {
        const Vpn base = rng_.uniformInt(0, 1u << 20);
        const bool write = rng_.bernoulli(0.5);
        const SimDuration cpu = rng_.uniformInt(0, 3) * 100;
        switch (rng_.uniformInt(0, 7)) {
          case 0:
          case 1:
            return SeqTouch{base, count(), write, rng_.bernoulli(0.3),
                            cpu};
          case 2:
          case 3: {
            RandTouch rt;
            rt.base = base;
            static const std::uint64_t kSpans[] = {1, 2, 50, 1000, 70000};
            rt.span = kSpans[rng_.uniformInt(0, std::size(kSpans) - 1)];
            rt.count = count();
            rt.write = write;
            rt.fd = rng_.bernoulli(0.2);
            rt.computePerTouch = cpu;
            if (rng_.bernoulli(0.6))
                rt.zipfTheta = rng_.bernoulli(0.5) ? 0.99 : 0.8;
            rt.scrambled = rng_.bernoulli(0.5);
            rt.seed = rng_.nextU64();
            return rt;
          }
          case 4: {
            offsets_.emplace_back();
            std::vector<std::uint32_t> &offs = offsets_.back();
            offs.resize(count());
            for (std::uint32_t &o : offs)
                o = static_cast<std::uint32_t>(rng_.uniformInt(0, 4095));
            return IndexedTouch{offs.data(), offs.size(), base, write,
                                cpu};
          }
          case 5:
            return ComputeSeg{rng_.uniformInt(1, 100000)};
          case 6:
            return BarrierSeg{
                static_cast<std::uint32_t>(rng_.uniformInt(0, 9))};
          default:
            return PhaseSeg{
                static_cast<std::uint32_t>(rng_.uniformInt(0, 9))};
        }
    }

    Rng rng_;
    /** IndexedTouch lists; a deque so earlier lists never move. */
    std::deque<std::vector<std::uint32_t>> offsets_;
};

TEST(OpBlocks, PatternStreamMatchesPerOpOracle)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        SegmentFactory factory(seed);
        const std::vector<Segment> program = factory.program(24);
        PatternStream blocks(program);
        OraclePatternStream oracle(program);
        EXPECT_TRUE(continuesLike(blocks, oracle)) << "seed " << seed;
        Op op;
        EXPECT_FALSE(blocks.next(op)) << "end must be idempotent";
    }
}

/** A PatternStream whose block fill level a test can read. */
class PeekStream : public PatternStream
{
  public:
    using PatternStream::PatternStream;
    using OpStream::unconsumed;
};

TEST(OpBlocks, PatternStreamNeverSpansTwoSegments)
{
    // Two 100-page runs fill blocks of 64 and 36 from the first run;
    // the second run starts a fresh block.
    const std::vector<Segment> program{SeqTouch{0, 100, false, false, 0},
                                       SeqTouch{1000, 100, false, false,
                                                0}};
    PeekStream s(program);
    OraclePatternStream oracle(program);
    Op a, b;
    for (int i = 0; i < 100; ++i) {
        ASSERT_TRUE(s.next(a));
        ASSERT_TRUE(oracle.next(b));
    }
    EXPECT_EQ(s.unconsumed(), 0u) << "the second block held 36 ops";
    ASSERT_TRUE(s.next(a));
    ASSERT_TRUE(oracle.next(b));
    EXPECT_EQ(a.vpn, 1000u);
    EXPECT_EQ(s.unconsumed(), OpStream::kBlockOps - 1);
    EXPECT_EQ(imageOf(s), imageOf(oracle));
}

/**
 * Checkpoint @p blocks and @p oracle after every @p k ops: the images
 * must be byte-identical, and a fresh block stream restored from the
 * image must continue exactly like a fresh oracle restored from it.
 */
template <typename Oracle, typename MakeBlocks, typename MakeOracle>
void
expectImagesMatch(OpStream &blocks, Oracle &oracle, std::uint64_t k,
                  const MakeBlocks &make_blocks,
                  const MakeOracle &make_oracle, const std::string &tag,
                  std::uint64_t restore_every = 1)
{
    Op a, b;
    std::uint64_t ops = 0, checkpoints = 0;
    for (;;) {
        if (ops % k == 0) {
            const ByteBuffer image = imageOf(blocks);
            ASSERT_EQ(image, imageOf(oracle))
                << tag << ": image after " << ops << " ops";
            if (checkpoints++ % restore_every == 0) {
                auto restored = make_blocks();
                auto restored_oracle = make_oracle();
                ASSERT_TRUE(restoreFrom(*restored, image)) << tag;
                ASSERT_TRUE(restoreFrom(*restored_oracle, image)) << tag;
                ASSERT_TRUE(continuesLike(*restored, *restored_oracle))
                    << tag << ": restored after " << ops << " ops";
            }
        }
        const bool more = blocks.next(a);
        ASSERT_EQ(more, oracle.next(b)) << tag << " at op " << ops;
        if (!more)
            break;
        ASSERT_TRUE(sameOp(a, b)) << tag << " at op " << ops;
        ++ops;
    }
    EXPECT_EQ(imageOf(blocks), imageOf(oracle)) << tag << ": at the end";
}

TEST(OpBlocks, PatternStreamImagesMatchOracleMidBlock)
{
    // k = 1 checkpoints inside every block; 7 and 64 land at every
    // offset of a block over the run; the programs span many blocks.
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SegmentFactory factory(seed * 7919);
        const std::vector<Segment> program = factory.program(10);
        for (const std::uint64_t k : {1u, 7u, 64u, 65u}) {
            PatternStream blocks(program);
            OraclePatternStream oracle(program);
            expectImagesMatch(
                blocks, oracle, k,
                [&] { return std::make_unique<PatternStream>(program); },
                [&] {
                    return std::make_unique<OraclePatternStream>(program);
                },
                "seed " + std::to_string(seed) + " k " + std::to_string(k),
                k == 1 ? 5 : 1);
        }
    }
}

TEST(OpBlocks, ZipfAndUniformRunsReplayTheirDraws)
{
    // Long single RandTouch runs (3+ blocks each), zipfian scrambled
    // and not, uniform, and a one-page span that draws nothing.
    std::vector<Segment> program;
    for (const double theta : {0.99, 0.8, 0.0}) {
        for (const bool scrambled : {true, false}) {
            RandTouch rt;
            rt.base = 500;
            rt.span = 4000;
            rt.count = 3 * OpStream::kBlockOps + 17;
            rt.zipfTheta = theta;
            rt.scrambled = scrambled;
            rt.seed = 11 + program.size();
            program.push_back(rt);
        }
    }
    RandTouch one;
    one.span = 1;
    one.count = 150;
    program.push_back(one);
    for (const std::uint64_t k : {1u, 3u, 50u}) {
        PatternStream blocks(program);
        OraclePatternStream oracle(program);
        expectImagesMatch(
            blocks, oracle, k,
            [&] { return std::make_unique<PatternStream>(program); },
            [&] { return std::make_unique<OraclePatternStream>(program); },
            "k " + std::to_string(k), 4);
    }
}

TEST(OpBlocks, PatternStreamRefusesOutOfRangeCursors)
{
    const std::vector<std::uint32_t> offsets{3, 1, 4};
    RandTouch rt;
    rt.span = 10;
    rt.count = 5;
    const std::vector<Segment> program{
        SeqTouch{0, 10, false, false, 0}, rt,
        IndexedTouch{offsets.data(), offsets.size(), 0, false, 0},
        ComputeSeg{5}};
    auto image = [](std::uint64_t index, std::uint64_t emitted,
                    bool with_rng) {
        Sink sink;
        sink.u64(index);
        sink.u64(emitted);
        sink.boolean(with_rng);
        if (with_rng) {
            Rng rng(7);
            StateIO io(sink);
            rng.visitState(io);
        }
        return sink.data();
    };
    struct Case
    {
        const char *name;
        ByteBuffer bytes;
        bool accepted;
    };
    const Case cases[] = {
        {"start", image(0, 0, false), true},
        {"seq run end", image(0, 10, false), true},
        {"seq past run", image(0, 11, false), false},
        {"rand with rng", image(1, 5, true), true},
        {"rand past run", image(1, 6, true), false},
        {"indexed run end", image(2, 3, false), true},
        {"indexed past run", image(2, 4, false), false},
        {"rng on seq", image(0, 3, true), false},
        {"rng on indexed", image(2, 1, true), false},
        {"single-op kind holds no run", image(3, 1, false), false},
        {"end of program", image(4, 0, false), true},
        {"end with emitted", image(4, 1, false), false},
        {"rng at end", image(4, 0, true), false},
        {"index past program", image(5, 0, false), false},
    };
    for (const Case &c : cases) {
        PatternStream s(program);
        Source src(c.bytes.data(), c.bytes.size());
        StateIO check(src, nullptr, StateIO::Mode::Check);
        s.visitState(check);
        EXPECT_EQ(check.exhausted(), c.accepted) << c.name;
    }
}

// --- YCSB ----------------------------------------------------------

YcsbConfig
smallYcsb()
{
    YcsbConfig cfg;
    cfg.kv.items = 600;
    cfg.kv.itemBytes = 1500; // some items straddle two slab pages
    cfg.kv.seed = 5;
    cfg.mix = YcsbMix::A;
    cfg.threads = 3;
    cfg.requestsPerItem = 1.0;
    return cfg;
}

/**
 * The per-request YCSB stream: a std::vector queue plus its head, and
 * a live generator drawing each request as it is expanded.
 */
class OracleYcsbStream
{
  public:
    OracleYcsbStream(const YcsbConfig &config, const KvStore &store,
                     unsigned tid)
        : config_(config), store_(store),
          rng_(splitmix64(config.seed ^ (1000 + tid))),
          zipf_(store.items(), config.zipfTheta, true)
    {
        const std::uint64_t items = store.items();
        loadLo_ = items * tid / config.threads;
        loadHi_ = items * (tid + 1) / config.threads;
        requests_ = static_cast<std::uint64_t>(
            static_cast<double>(items) * config.requestsPerItem /
            config.threads);
    }

    bool
    next(Op &op)
    {
        if (queueHead_ < queue_.size()) {
            op = queue_[queueHead_++];
            return true;
        }
        return refill(op);
    }

    void
    visitState(StateIO &io)
    {
        io.enumU8(phase_, Phase::Requests);
        io.u64(loadLo_);
        io.u64(done_);
        rng_.visitState(io);
        io.objects(queue_, 64);
        io.u64(queueHead_);
    }

  private:
    enum class Phase
    {
        Load,
        BarrierThenMark,
        Requests,
    };

    bool
    refill(Op &op)
    {
        queue_.clear();
        queueHead_ = 0;
        switch (phase_) {
          case Phase::Load: {
            if (loadLo_ >= loadHi_) {
                phase_ = Phase::BarrierThenMark;
                return refill(op);
            }
            pushItemOps(loadLo_++, true, false);
            queue_.push_back(Op::makeCompute(config_.computePerRequest));
            op = queue_[queueHead_++];
            return true;
          }
          case Phase::BarrierThenMark:
            queue_.push_back(Op::makeBarrier(0));
            queue_.push_back(Op::makePhase(1));
            phase_ = Phase::Requests;
            op = queue_[queueHead_++];
            return true;
          case Phase::Requests: {
            if (done_ >= requests_)
                return false;
            ++done_;
            const std::uint64_t item = zipf_.next(rng_);
            const bool is_read =
                rng_.nextDouble() < ycsbReadFraction(config_.mix);
            const std::uint32_t klass = is_read ? kYcsbRead : kYcsbWrite;
            queue_.push_back(Op::makeRequestStart(klass));
            pushItemOps(item, !is_read, true);
            queue_.push_back(Op::makeCompute(config_.computePerRequest));
            queue_.push_back(Op::makeRequestEnd(klass));
            op = queue_[queueHead_++];
            return true;
          }
        }
        return false;
    }

    void
    pushItemOps(std::uint64_t item, bool write, bool read_bucket_first)
    {
        queue_.push_back(
            Op::makeTouch(store_.bucketPageOf(item), !read_bucket_first));
        Vpn pages[2];
        const unsigned n = store_.itemPagesOf(item, pages);
        for (unsigned i = 0; i < n; ++i)
            queue_.push_back(Op::makeTouch(pages[i], write));
    }

    // lint:state-cov-ok(construction parameter, the same for a restored stream)
    YcsbConfig config_;
    const KvStore &store_;
    Rng rng_;
    // lint:state-cov-ok(precomputed zeta tables, a pure function of the config item count)
    ZipfianGenerator zipf_;
    Phase phase_ = Phase::Load;
    std::uint64_t loadLo_ = 0;
    // lint:state-cov-ok(load partition bound, a pure function of config replayed at construction)
    std::uint64_t loadHi_ = 0;
    // lint:state-cov-ok(per-thread request target, a pure function of config replayed at construction)
    std::uint64_t requests_ = 0;
    std::uint64_t done_ = 0;
    std::vector<Op> queue_;
    std::size_t queueHead_ = 0;
};

/** A built YCSB workload and an oracle store laid out the same way. */
struct YcsbFixture
{
    YcsbConfig cfg;
    YcsbWorkload wl{cfg};
    AddressSpace space{0};
    KvStore store{cfg.kv};
    AddressSpace oracleSpace{0};

    explicit YcsbFixture(const YcsbConfig &config = smallYcsb())
        : cfg(config)
    {
        WorkloadContext ctx;
        ctx.space = &space;
        wl.build(ctx);
        store.mapInto(oracleSpace);
    }
};

TEST(OpBlocks, YcsbStreamMatchesVectorQueueOracle)
{
    YcsbFixture f;
    for (unsigned tid = 0; tid < f.cfg.threads; ++tid) {
        auto blocks = f.wl.stream(tid);
        OracleYcsbStream oracle(f.cfg, f.store, tid);
        EXPECT_TRUE(continuesLike(*blocks, oracle)) << "thread " << tid;
    }
}

TEST(OpBlocks, YcsbImagesMatchVectorQueueOracle)
{
    // Every k lands at each offset of a load (2-3 ops) or request
    // (5-6 ops) expansion: the image holds the expansion as the queue
    // did, plus its head, and a restored stream drains it identically.
    YcsbFixture f;
    for (const std::uint64_t k : {1u, 2u, 5u, 7u}) {
        const unsigned tid = static_cast<unsigned>(k % f.cfg.threads);
        auto blocks = f.wl.stream(tid);
        OracleYcsbStream oracle(f.cfg, f.store, tid);
        expectImagesMatch(
            *blocks, oracle, k, [&] { return f.wl.stream(tid); },
            [&] {
                return std::make_unique<OracleYcsbStream>(f.cfg, f.store,
                                                          tid);
            },
            "k " + std::to_string(k), 37);
    }
}

// --- The YCSB draw table -------------------------------------------

/** The Default-scale YCSB config (makeWorkload's) with mix @p mix. */
YcsbConfig
defaultYcsb(YcsbMix mix)
{
    YcsbConfig cfg; // 48,000 items, 4 threads, 10 requests per item
    cfg.mix = mix;
    return cfg;
}

TEST(YcsbDraws, ReplayMatchesLiveDrawsAtDefaultScale)
{
    // Every thread of every mix: the replayed stream is the live one.
    for (const YcsbMix mix : {YcsbMix::A, YcsbMix::B, YcsbMix::C}) {
        YcsbFixture f(defaultYcsb(mix));
        for (unsigned tid = 0; tid < f.cfg.threads; ++tid) {
            auto blocks = f.wl.stream(tid);
            OracleYcsbStream oracle(f.cfg, f.store, tid);
            EXPECT_TRUE(continuesLike(*blocks, oracle))
                << ycsbMixName(mix) << " thread " << tid;
        }
    }
}

TEST(YcsbDraws, ImagesMatchLiveDrawsAroundSnapshots)
{
    // The image's generator words are derived from the snapshot taken
    // every kSnapshotEvery requests plus two words per request since:
    // at the start, one request in, either side of the second snapshot
    // and after the last request they must be the live generator's,
    // and a stream restored there must continue like the oracle.
    constexpr std::uint64_t kEvery = YcsbDraws::kSnapshotEvery;
    YcsbFixture f(defaultYcsb(YcsbMix::B));
    const unsigned tid = 1;
    const std::uint64_t last = YcsbDrawKey::of(f.cfg, tid).requests();
    ASSERT_GT(last, kEvery + 1);
    const std::vector<std::uint64_t> after{1, kEvery - 1, kEvery,
                                           kEvery + 1, last};
    auto blocks = f.wl.stream(tid);
    OracleYcsbStream oracle(f.cfg, f.store, tid);
    auto expectAt = [&](const std::string &tag) {
        const ByteBuffer image = imageOf(*blocks);
        ASSERT_EQ(image, imageOf(oracle)) << tag;
        auto restored = f.wl.stream(tid);
        OracleYcsbStream restored_oracle(f.cfg, f.store, tid);
        ASSERT_TRUE(restoreFrom(*restored, image)) << tag;
        ASSERT_TRUE(restoreFrom(restored_oracle, image)) << tag;
        ASSERT_TRUE(continuesLike(*restored, restored_oracle)) << tag;
    };
    // Before the first load (done 0), then after each listed request
    // ends, with the expansion fully handed out.
    expectAt("start");
    std::uint64_t ended = 0;
    std::size_t next = 0;
    Op a, b;
    while (blocks->next(a)) {
        ASSERT_TRUE(oracle.next(b));
        ASSERT_TRUE(sameOp(a, b)) << "after " << ended << " requests";
        if (a.kind == Op::Kind::RequestEnd && ++ended == after[next]) {
            expectAt("done " + std::to_string(ended));
            if (++next == after.size())
                break;
        }
    }
    EXPECT_EQ(next, after.size()) << "every listed cursor was reached";
    EXPECT_FALSE(blocks->next(a));
    EXPECT_FALSE(oracle.next(b));
    expectAt("end");
}

/** @p draws as one value per request: item * 8 + read bits A, B, C. */
std::vector<std::uint64_t>
flatten(const YcsbDraws &draws)
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t i = 0; i < draws.requests(); ++i)
        out.push_back(draws.item(i) * 8 + draws.isRead(YcsbMix::A, i) * 4 +
                      draws.isRead(YcsbMix::B, i) * 2 +
                      draws.isRead(YcsbMix::C, i));
    return out;
}

TEST(YcsbDraws, EveryKeyFieldChangesTheDraws)
{
    const YcsbConfig base = smallYcsb();
    const std::vector<std::uint64_t> reference =
        flatten(YcsbDraws(YcsbDrawKey::of(base, 0)));
    ASSERT_FALSE(reference.empty());
    struct Case
    {
        const char *field;
        YcsbConfig cfg;
        unsigned tid;
    };
    std::vector<Case> cases;
    auto with = [&](const char *field, auto edit, unsigned tid = 0) {
        YcsbConfig cfg = base;
        edit(cfg);
        cases.push_back({field, cfg, tid});
    };
    with("items", [](YcsbConfig &c) { c.kv.items += 1; });
    with("theta", [](YcsbConfig &c) { c.zipfTheta = 0.8; });
    with("seed", [](YcsbConfig &c) { c.seed += 1; });
    with("threads", [](YcsbConfig &c) { c.threads += 1; });
    with("requestsPerItem", [](YcsbConfig &c) { c.requestsPerItem *= 2; });
    with("tid", [](YcsbConfig &) {}, 1);
    for (const Case &c : cases) {
        const YcsbDrawKey key = YcsbDrawKey::of(c.cfg, c.tid);
        EXPECT_NE(key, YcsbDrawKey::of(base, 0)) << c.field;
        EXPECT_NE(flatten(YcsbDraws(key)), reference) << c.field;
    }
    // Fields the draws do not read share the table.
    YcsbConfig layout = base;
    layout.kv.itemBytes += 100;
    layout.kv.seed += 1;
    layout.mix = YcsbMix::C;
    layout.computePerRequest += 1;
    EXPECT_EQ(YcsbDrawKey::of(layout, 0), YcsbDrawKey::of(base, 0));
}

TEST(YcsbDraws, MixesShareItemsButNotReadBits)
{
    // One table serves all three mixes: the same coin, three
    // thresholds, so reads nest A within B within C, and C never
    // updates.
    YcsbConfig a = defaultYcsb(YcsbMix::A);
    YcsbConfig b = defaultYcsb(YcsbMix::B);
    const auto table = sharedYcsbDraws(YcsbDrawKey::of(a, 2));
    EXPECT_EQ(table, sharedYcsbDraws(YcsbDrawKey::of(b, 2)));
    std::uint64_t reads[3] = {0, 0, 0};
    for (std::uint64_t i = 0; i < table->requests(); ++i) {
        const bool ra = table->isRead(YcsbMix::A, i);
        const bool rb = table->isRead(YcsbMix::B, i);
        const bool rc = table->isRead(YcsbMix::C, i);
        ASSERT_TRUE(!ra || rb) << "request " << i;
        ASSERT_TRUE(rc) << "request " << i;
        reads[0] += ra;
        reads[1] += rb;
        reads[2] += rc;
    }
    const double n = static_cast<double>(table->requests());
    EXPECT_NEAR(reads[0] / n, 0.50, 0.01);
    EXPECT_NEAR(reads[1] / n, 0.95, 0.01);
    EXPECT_LT(reads[0], reads[1]);

    // And the two workloads' streams touch the same items in order.
    YcsbFixture fa(a), fb(b);
    auto sa = fa.wl.stream(2);
    auto sb = fb.wl.stream(2);
    Op x, y;
    std::uint64_t writes_differ = 0;
    while (sa->next(x)) {
        ASSERT_TRUE(sb->next(y));
        ASSERT_EQ(x.vpn, y.vpn);
        writes_differ += x.write != y.write;
    }
    EXPECT_FALSE(sb->next(y));
    EXPECT_GT(writes_differ, 0u);
}

TEST(YcsbDraws, ItemsUseTheNarrowestLane)
{
    // u16 items at Default's 48,000; u32 once the count passes 2^16.
    // Beyond the items, a table holds three read bits per request and
    // one generator snapshot per kSnapshotEvery requests.
    auto expected = [](const YcsbDraws &t, std::size_t item_bytes) {
        const std::uint64_t n = t.requests();
        return n * item_bytes + 3 * 8 * ((n + 63) / 64) +
               (n / YcsbDraws::kSnapshotEvery + 1) * sizeof(Rng);
    };
    const YcsbDraws narrow(YcsbDrawKey::of(defaultYcsb(YcsbMix::A), 0));
    EXPECT_EQ(narrow.requests(), 120000u);
    EXPECT_EQ(narrow.bytes(), expected(narrow, 2));
    YcsbConfig wide = defaultYcsb(YcsbMix::A);
    wide.kv.items = 1u << 18; // Big1M's count
    wide.requestsPerItem = 0.125;
    const YcsbDraws t(YcsbDrawKey::of(wide, 3));
    EXPECT_EQ(t.bytes(), expected(t, 4));
    bool above = false;
    for (std::uint64_t i = 0; i < t.requests(); ++i)
        above |= t.item(i) >= (1u << 16);
    EXPECT_TRUE(above) << "some draw needs the wide lane";
}

TEST(YcsbDraws, ConcurrentFirstUseGivesIdenticalStreams)
{
    // Four rigs' threads open the same never-used table at once: each
    // may build it, every build is the same bytes, and every stream
    // replays the same requests.
    YcsbConfig cfg = smallYcsb();
    cfg.seed = 0x5eed0fd1u; // a key no other test opens
    constexpr unsigned kThreads = 4;
    std::vector<std::vector<Op>> drained(kThreads);
    std::vector<std::shared_ptr<const YcsbDraws>> tables(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            YcsbWorkload wl(cfg);
            AddressSpace space(0);
            WorkloadContext ctx;
            ctx.space = &space;
            wl.build(ctx);
            start.arrive_and_wait();
            auto stream = wl.stream(0);
            tables[t] = sharedYcsbDraws(YcsbDrawKey::of(cfg, 0));
            Op op;
            while (stream->next(op))
                drained[t].push_back(op);
        });
    }
    for (std::thread &th : threads)
        th.join();
    YcsbFixture f(cfg);
    OracleYcsbStream oracle(f.cfg, f.store, 0);
    Op want;
    for (std::size_t i = 0; i < drained[0].size(); ++i) {
        ASSERT_TRUE(oracle.next(want));
        ASSERT_TRUE(sameOp(drained[0][i], want)) << "op " << i;
    }
    EXPECT_FALSE(oracle.next(want));
    for (unsigned t = 1; t < kThreads; ++t) {
        EXPECT_EQ(tables[t], tables[0]) << "the memo keeps one copy";
        ASSERT_EQ(drained[t].size(), drained[0].size()) << "thread " << t;
        for (std::size_t i = 0; i < drained[0].size(); ++i)
            ASSERT_TRUE(sameOp(drained[t][i], drained[0][i]))
                << "thread " << t << " op " << i;
    }
}

} // namespace
} // namespace pagesim
