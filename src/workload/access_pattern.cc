#include "workload/access_pattern.hh"

#include <algorithm>
#include <array>
#include <cassert>

namespace pagesim
{

namespace
{

/** Ops the next block takes from a run with @p left ops to go. */
std::size_t
blockLength(std::uint64_t left)
{
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(left, OpStream::kBlockOps));
}

/** A touch op of @p write / @p fd kind charging @p compute, vpn 0. */
Op
touchTemplate(bool write, bool fd, SimDuration compute)
{
    Op op = fd ? Op::makeFdTouch(0, write) : Op::makeTouch(0, write);
    op.compute = compute;
    return op;
}

/**
 * Write @p n draws of @p rand into @p out, advancing @p rng. @p zipf
 * is the segment's generator when it draws zipfian ranks. Refills and
 * checkpoint replays both run this, so they make the same draws.
 */
void
fillRand(const RandTouch &rand, ZipfianGenerator *zipf, Rng &rng,
         Op *out, std::size_t n)
{
    const Op op = touchTemplate(rand.write, rand.fd, rand.computePerTouch);
    if (zipf != nullptr) {
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = op;
            out[i].vpn = rand.base + zipf->next(rng);
        }
    } else if (rand.span > 1) {
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = op;
            out[i].vpn = rand.base + rng.uniformInt(0, rand.span - 1);
        }
    } else {
        // A one-page span draws nothing.
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = op;
            out[i].vpn = rand.base;
        }
    }
}

} // namespace

PatternStream::PatternStream(std::vector<Segment> segments)
    : segments_(std::move(segments))
{
}

bool
PatternStream::advanceSegment()
{
    ++index_;
    emitted_ = 0;
    rng_.reset();
    zipf_.reset();
    return index_ < segments_.size();
}

std::uint64_t
PatternStream::runLength(const Segment &seg)
{
    if (const auto *seq = std::get_if<SeqTouch>(&seg))
        return seq->count;
    if (const auto *rand = std::get_if<RandTouch>(&seg))
        return rand->count;
    if (const auto *idx = std::get_if<IndexedTouch>(&seg))
        return idx->count;
    return 0;
}

std::size_t
PatternStream::refill(Op *out)
{
    // A segment whose run is used up advances lazily, on the refill
    // after its last op, as a per-op stream would on its next call.
    while (index_ < segments_.size()) {
        Segment &seg = segments_[index_];

        if (const auto *seq = std::get_if<SeqTouch>(&seg)) {
            if (emitted_ >= seq->count) {
                advanceSegment();
                continue;
            }
            const std::size_t n = blockLength(seq->count - emitted_);
            const Op op =
                touchTemplate(seq->write, seq->fd, seq->computePerPage);
            const Vpn base = seq->base + emitted_;
            for (std::size_t i = 0; i < n; ++i) {
                out[i] = op;
                out[i].vpn = base + i;
            }
            emitted_ += n;
            return n;
        }

        if (const auto *rand = std::get_if<RandTouch>(&seg)) {
            if (emitted_ >= rand->count) {
                advanceSegment();
                continue;
            }
            if (!rng_)
                rng_.emplace(rand->seed);
            const bool zipfian = rand->zipfTheta > 0.0 && rand->span > 1;
            if (zipfian && !zipf_) {
                zipf_ = std::make_unique<ZipfianGenerator>(
                    rand->span, rand->zipfTheta, rand->scrambled);
            }
            const std::size_t n = blockLength(rand->count - emitted_);
            blockRng_ = *rng_;
            Rng rng = *rng_;
            fillRand(*rand, zipfian ? zipf_.get() : nullptr, rng, out, n);
            *rng_ = rng;
            emitted_ += n;
            return n;
        }

        if (const auto *idx = std::get_if<IndexedTouch>(&seg)) {
            if (emitted_ >= idx->count) {
                advanceSegment();
                continue;
            }
            const std::size_t n = blockLength(idx->count - emitted_);
            const Op op =
                touchTemplate(idx->write, false, idx->computePerTouch);
            const std::uint32_t *offsets = idx->offsets + emitted_;
            for (std::size_t i = 0; i < n; ++i) {
                out[i] = op;
                out[i].vpn = idx->base + offsets[i];
            }
            emitted_ += n;
            return n;
        }

        if (const auto *comp = std::get_if<ComputeSeg>(&seg))
            out[0] = Op::makeCompute(comp->ns);
        else if (const auto *bar = std::get_if<BarrierSeg>(&seg))
            out[0] = Op::makeBarrier(bar->id);
        else
            out[0] = Op::makePhase(std::get<PhaseSeg>(seg).id);
        advanceSegment();
        return 1;
    }
    return 0;
}

void
PatternStream::visitState(StateIO &io)
{
    // The image holds the cursor after the last op handed out. A
    // partly drained block came from segments_[index_] alone (index_
    // does not move while a multi-op segment fills a block), so that
    // cursor is the block's start plus the consumed ops, whose draws
    // are replayed from the generator state the block started from.
    std::uint64_t index = index_;
    std::uint64_t emitted = emitted_;
    std::optional<Rng> rng = rng_;
    if (unconsumed() != 0) {
        emitted -= unconsumed();
        if (const auto *rand = std::get_if<RandTouch>(&segments_[index_])) {
            rng = blockRng_;
            std::array<Op, kBlockOps> scratch;
            fillRand(*rand, zipf_.get(), *rng, scratch.data(), consumed());
        }
    }

    index = io.u64(index);
    emitted = io.u64(emitted);
    bool has_rng = rng.has_value();
    has_rng = io.boolean(has_rng);
    if (has_rng) {
        if (!rng)
            rng.emplace(1);
        rng->visitState(io);
    }

    // A cursor past the program, past its segment's run, or with a
    // generator outside a RandTouch segment is refused before apply.
    const bool in_program = index < segments_.size();
    io.require(index <= segments_.size());
    io.require(emitted <= (in_program ? runLength(segments_[index]) : 0));
    io.require(!has_rng ||
               (in_program &&
                std::holds_alternative<RandTouch>(segments_[index])));

    if (io.loading() && io.ok()) {
        index_ = static_cast<std::size_t>(index);
        emitted_ = emitted;
        rng_ = has_rng ? rng : std::nullopt;
        // zipf_ is pure function-of-segment state: rebuilt on the next
        // refill, consuming no RNG values at construction.
        zipf_.reset();
        dropBlock();
    }
}

} // namespace pagesim
