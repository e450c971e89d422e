/**
 * @file
 * Binary serialization primitives for simulator checkpoints.
 *
 * Sink appends little-endian scalars and raw bytes to a buffer;
 * Source reads them back with bounds checks. Neither throws: a Source
 * that runs past its buffer latches ok() == false and returns zeros,
 * so checkpoint loading can validate once at the end instead of
 * wrapping every read.
 *
 * Scalars are fixed-width, with no varints and no tags, because
 * checkpoints are checksummed (checksum64) and version-gated at the
 * section level (see harness/checkpoint.hh); the byte stream only
 * needs to be deterministic, not evolvable.
 *
 * Lanes (StateIO::lane, podVec, recordLanes: every frame-record field,
 * every PTE lane, and every other POD array) travel packed. A lane is a u64
 * element count, a u64 packed length, then the payload. Elements are
 * read as the widest of 8/4/2/1-byte words that tiles them, and each
 * word is XORed with the word before it in the lane. The XORed words
 * go in blocks of 64, each the smaller of (width on ties):
 *
 *   width   header b in 0..w, then every delta's low b bytes;
 *   sparse  header 0x80, a u64 mask of the nonzero deltas, then
 *           those deltas at full width w.
 *
 * Constant lanes (owners, memcg ids, list ids, invalid-slot runs)
 * collapse to a byte per block, small counters to a byte per word, and
 * random lanes (prev/next links) stay near their raw size. Encoding and
 * decoding are word-at-a-time with no lane-sized buffer on either side:
 * Save grows the Sink by a lane's bound, packs in place and truncates
 * the rest, and Load decodes in place. Decoding first walks the lane's framing (a header
 * outside 0..w and 0x80, a mask bit past the lane's end, a block longer
 * than the bytes left, or bytes left over all fail), so a Load that
 * fails stores nothing, and Check mode validates the framing without
 * un-XORing anything. Size mode counts an exact upper bound,
 * 16 + words*w + ceil(words/64)*9 bytes per lane, which is what capture
 * reserves; untouched reserved pages never become resident.
 *
 * A little-endian host is assumed (and asserted at compile time):
 * lane words are loaded in host byte order and checksum64() loads
 * host-order words, while the scalar writers spell out little-endian.
 * On such a host all three agree, so an image is portable between
 * little-endian machines.
 *
 * Sink::patchU64() and Sink::take() let a caller build a framed image
 * in one buffer: reserve a length or checksum slot, serialize the
 * payload straight after it, backfill the slot over the payload span,
 * and move the finished buffer out. Each payload byte is written once.
 *
 * StateIO is the one archive every checkpointed class describes its
 * state to, in a single visitState(StateIO &) body that capture,
 * validation, restore and sizing all run. Fields are passed by
 * reference (io.u64(x), io.podVec(lane), ...) and the archive's mode
 * decides the direction:
 *
 *   Save   append each field to a Sink;
 *   Load   overwrite each field from a Source;
 *   Check  decode a Source and compare shapes, store nothing;
 *   Size   bound the bytes Save would append, touch nothing.
 *
 * Because one body serves every mode, a field cannot be written but
 * not read back, or read in another order. io.loading() marks the few
 * steps that really differ between directions. Check mode lets a
 * restore validate a whole image (lane and record counts, lane
 * framing, link ids, enum ranges, layout checks) before any state is
 * applied. It stores nothing, so a body must not let a decoded value
 * steer its control flow except through the archive's own ops
 * (objects, optional, record, actorList), which decode what they
 * branch on themselves.
 *
 * Pointers do not survive a checkpoint. The archive carries the rig's
 * id tables (StateLinks): frame owners are written as address-space
 * ids and barrier waiters as actor indices, and mapped back on load.
 * An id outside the tables fails the decode instead of indexing past
 * them.
 */

#ifndef PAGESIM_SIM_SERIALIZE_HH
#define PAGESIM_SIM_SERIALIZE_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/page_alloc.hh"

namespace pagesim
{

class AddressSpace;
class SimActor;

static_assert(std::endian::native == std::endian::little,
              "checkpoint images assume a little-endian host");

/** FNV-1a offset basis / prime (64-bit). */
constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** FNV-1a over a byte range, chainable via @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t len, std::uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

namespace detail
{

constexpr std::uint64_t kSumP1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kSumP2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kSumP3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kSumP4 = 0x85ebca77c2b2ae63ull;

inline std::uint64_t
loadWord(const unsigned char *p)
{
    std::uint64_t w = 0;
    std::memcpy(&w, p, sizeof(w));
    return w;
}

/** One multiply-rotate step; a bijection in both @p acc and @p w. */
inline std::uint64_t
sumRound(std::uint64_t acc, std::uint64_t w)
{
    return std::rotl(acc + w * kSumP2, 31) * kSumP1;
}

/** Fold one more word into the merged hash (also a bijection). */
inline std::uint64_t
sumFold(std::uint64_t h, std::uint64_t w)
{
    return std::rotl(h ^ sumRound(0, w), 27) * kSumP1 + kSumP4;
}

} // namespace detail

/**
 * Word-at-a-time checksum for checkpoint sections. Four independent
 * multiply-rotate lanes consume 32-byte stripes, so the multiplies
 * pipeline and the loop runs near memory bandwidth (byte-serial FNV-1a
 * is one dependent multiply per byte). The lanes merge, the byte
 * length is folded in, trailing words and the zero-padded final
 * partial word are folded one at a time, and a murmur3 fmix64
 * finalizer avalanches the result.
 *
 * Every step is a bijection in the word it consumes, so changing any
 * single input word (in particular flipping any byte) always changes
 * the sum. This is an integrity check against truncation and stray
 * corruption, not a cryptographic MAC. The value is part of the
 * checkpoint format: changing the algorithm requires a
 * kCheckpointVersion bump (tests/sim/serialize_test.cpp pins one
 * value).
 */
inline std::uint64_t
checksum64(const void *data, std::size_t len)
{
    using namespace detail;
    const auto *p = static_cast<const unsigned char *>(data);
    const unsigned char *const end = p + len;

    std::uint64_t v0 = kSumP1 + kSumP2;
    std::uint64_t v1 = kSumP2;
    std::uint64_t v2 = 0;
    std::uint64_t v3 = 0 - kSumP1;
    for (; end - p >= 32; p += 32) {
        v0 = sumRound(v0, loadWord(p));
        v1 = sumRound(v1, loadWord(p + 8));
        v2 = sumRound(v2, loadWord(p + 16));
        v3 = sumRound(v3, loadWord(p + 24));
    }
    std::uint64_t h = std::rotl(v0, 1) + std::rotl(v1, 7) +
                      std::rotl(v2, 12) + std::rotl(v3, 18);
    h ^= static_cast<std::uint64_t>(len) * kSumP3;

    for (; end - p >= 8; p += 8)
        h = sumFold(h, loadWord(p));
    if (p != end) {
        std::uint64_t w = 0;
        std::memcpy(&w, p, static_cast<std::size_t>(end - p));
        h = sumFold(h, w);
    }

    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
}

/**
 * A checkpoint image's bytes. Page-mapped (sim/page_alloc.hh): a freed
 * image goes back to the OS, and a Sink grows without zeroing.
 */
using ByteBuffer = std::vector<std::uint8_t, PageMappedAllocator<std::uint8_t>>;

/** Append-only little-endian byte buffer. */
class Sink
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        std::uint8_t *p = grow(4);
        for (int i = 0; i < 4; ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    void
    u64(std::uint64_t v)
    {
        std::uint8_t *p = grow(8);
        for (int i = 0; i < 8; ++i)
            p[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void
    bytes(const void *data, std::size_t len)
    {
        if (len != 0)
            std::memcpy(grow(len), data, len);
    }

    /**
     * Append @p n uninitialized bytes and return where they start, for
     * an encoder that writes a bounded region in place and then
     * truncate()s what it did not use. The pointer is valid until the
     * next append.
     */
    std::uint8_t *
    grow(std::size_t n)
    {
        const std::size_t at = buf_.size();
        if (buf_.capacity() - at < n)
            buf_.reserve(std::max(at + n, 2 * buf_.capacity()));
        buf_.resize(at + n);
        return buf_.data() + at;
    }

    /** Drop every byte from @p size on (size <= size()). */
    void
    truncate(std::size_t size)
    {
        assert(size <= buf_.size());
        buf_.resize(size);
    }


    /**
     * Capacity hint for bulk captures. Growing a multi-hundred-MB
     * buffer by geometric doubling re-copies the accumulated bytes
     * several times over; a caller that knows its footprint (packed
     * lane bounds, section payload totals) reserves once instead.
     */
    void reserve(std::size_t n) { buf_.reserve(n); }

    /**
     * Overwrite the 8 bytes at @p offset (a slot written earlier, e.g.
     * by u64(0)) with @p v, little-endian. Used to backfill a length
     * or checksum once the payload it describes has been written.
     */
    void
    patchU64(std::size_t offset, std::uint64_t v)
    {
        assert(offset + 8 <= buf_.size());
        for (int i = 0; i < 8; ++i)
            buf_[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    const ByteBuffer &data() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

    /** Move the buffer out (no copy); the Sink is left empty. */
    ByteBuffer
    take() &&
    {
        return std::move(buf_);
    }

  private:
    ByteBuffer buf_;
};

/**
 * Bounds-checked reader over a byte range. Reads past the end return
 * zero and latch ok() == false; callers validate once after decoding.
 */
class Source
{
  public:
    Source(const std::uint8_t *data, std::size_t len)
        : p_(data), len_(len)
    {
    }

    std::uint8_t
    u8()
    {
        if (!take(1))
            return 0;
        return p_[off_ - 1];
    }

    std::uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p_[off_ - 4 + i]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p_[off_ - 8 + i]) << (8 * i);
        return v;
    }

    void
    bytes(void *out, std::size_t len)
    {
        if (len == 0)
            return; // an empty vector's data() may be null
        if (!take(len)) {
            std::memset(out, 0, len);
            return;
        }
        std::memcpy(out, p_ + off_ - len, len);
    }

    /**
     * The next @p len bytes, which this Source steps over, read in
     * place; nullptr (and failure) when fewer remain.
     */
    const std::uint8_t *
    view(std::size_t len)
    {
        return take(len) ? p_ + off_ - len : nullptr;
    }

    /** Latch ok() == false: what was decoded must not be used. */
    void fail() { ok_ = false; }

    /** False once any read ran past the end of the buffer. */
    bool ok() const { return ok_; }

    /** True when every byte has been consumed (and no read failed). */
    bool exhausted() const { return ok_ && off_ == len_; }

    std::size_t remaining() const { return len_ - off_; }

  private:
    bool
    take(std::size_t n)
    {
        if (!ok_ || len_ - off_ < n) {
            ok_ = false;
            return false;
        }
        off_ += n;
        return true;
    }

    const std::uint8_t *p_;
    std::size_t len_;
    std::size_t off_ = 0;
    bool ok_ = true;
};

namespace detail
{

/** Words per packed-lane block (one bit each in a sparse mask). */
constexpr std::size_t kLaneBlockWords = 64;

/**
 * Records per step of StateIO::recordLanes's sweep: whole blocks, and
 * few enough that a step's records stay in L1 while every lane visits
 * them.
 */
constexpr std::size_t kSweepRecords = 4 * kLaneBlockWords;

/** Header of a sparse block; a width block's header is its width. */
constexpr std::uint8_t kSparseBlock = 0x80;

/** The widest of 8/4/2/1-byte words that tiles a @p T element. */
template <typename T>
using LaneWord = std::conditional_t<
    sizeof(T) % 8 == 0, std::uint64_t,
    std::conditional_t<
        sizeof(T) % 4 == 0, std::uint32_t,
        std::conditional_t<sizeof(T) % 2 == 0, std::uint16_t,
                           std::uint8_t>>>;

/**
 * Upper bound on a packed lane of @p words words of @p width bytes:
 * count and packed length, every word at full width, and at most nine
 * header bytes per block.
 */
constexpr std::uint64_t
packedLaneBound(std::uint64_t words, std::size_t width)
{
    return 16 + words * width +
           (words + kLaneBlockWords - 1) / kLaneBlockWords * 9;
}

/**
 * Walk a packed lane's block framing without decoding it: false on a
 * bad header, a mask bit past the lane's end, a block longer than the
 * bytes left, or bytes left over after @p words words.
 */
inline bool
scanLane(const std::uint8_t *p, std::size_t len, std::uint64_t words,
         std::size_t width)
{
    const std::uint8_t *const end = p + len;
    for (std::uint64_t at = 0; at < words; at += kLaneBlockWords) {
        const std::uint64_t k = std::min<std::uint64_t>(
            kLaneBlockWords, words - at);
        if (p == end)
            return false;
        const std::uint8_t header = *p++;
        std::size_t body = 0;
        if (header == kSparseBlock) {
            if (end - p < 8)
                return false;
            const std::uint64_t mask = loadWord(p);
            p += 8;
            if (k < kLaneBlockWords && (mask >> k) != 0)
                return false;
            body = static_cast<std::size_t>(std::popcount(mask)) * width;
        } else if (header <= width) {
            body = static_cast<std::size_t>(k) * header;
        } else {
            return false;
        }
        if (static_cast<std::size_t>(end - p) < body)
            return false;
        p += body;
    }
    return p == end;
}

/**
 * Packs a lane of @p Word words in place into a region the caller
 * sized to the lane's payload bound (packedLaneBound() less the 16
 * framing bytes). Every block stays inside its share of that bound,
 * stray tail bytes included, so lanes packed side by side into
 * adjacent slices never overwrite each other. The XOR chain runs
 * across put() calls; every put() but the last must carry a whole
 * number of blocks.
 */
template <typename Word>
class LaneEncoder
{
  public:
    explicit LaneEncoder(std::uint8_t *out) : out_(out) {}

    LaneEncoder(const LaneEncoder &) = delete;
    LaneEncoder &operator=(const LaneEncoder &) = delete;

    /**
     * Append @p words words read from @p in, one every @p Stride bytes
     * (a record field's stride; packed by default).
     */
    template <std::size_t Stride = sizeof(Word)>
    void
    put(const void *in, std::size_t words)
    {
        const auto *p = static_cast<const unsigned char *>(in);
        while (words > 0) {
            const std::size_t k = std::min(words, kLaneBlockWords);
            // A full block gets a constant trip count, so the delta and
            // narrowing loops vectorize.
            if (k == kLaneBlockWords)
                encodeBlock<kLaneBlockWords, Stride>(p, k);
            else
                encodeBlock<0, Stride>(p, k);
            p += k * Stride;
            words -= k;
        }
    }

    /** Packed bytes written so far. */
    std::size_t bytes() const { return used_; }

  private:
    /**
     * Encode @p k words (@p K of them when @p K is nonzero). Stray
     * whole-word stores end at most 9 + k * sizeof(Word) bytes past
     * the block's start: a sparse block is chosen only when it holds
     * fewer than k - 1 words, and a narrowed block's last store ends
     * (k - 1) * width + sizeof(Word) bytes into its body.
     */
    template <std::size_t K, std::size_t Stride>
    void
    encodeBlock(const unsigned char *in, std::size_t k)
    {
        const std::size_t n = K != 0 ? K : k;
        Word x[kLaneBlockWords + 1];
        x[0] = prev_;
        if constexpr (Stride == sizeof(Word)) {
            std::memcpy(x + 1, in, n * sizeof(Word));
        } else {
            for (std::size_t i = 0; i < n; ++i)
                std::memcpy(&x[i + 1], in + i * Stride, sizeof(Word));
        }
        prev_ = x[n];
        Word delta[kLaneBlockWords];
        Word any = 0;
        std::size_t nonzero = 0;
        for (std::size_t i = 0; i < n; ++i) {
            delta[i] = static_cast<Word>(x[i + 1] ^ x[i]);
            any = static_cast<Word>(any | delta[i]);
            nonzero += delta[i] != 0;
        }
        const std::size_t width =
            (static_cast<std::size_t>(std::bit_width(any)) + 7) / 8;
        std::uint8_t *out = out_;
        if (9 + nonzero * sizeof(Word) < 1 + n * width) {
            *out++ = kSparseBlock;
            std::uint8_t *mask_at = out;
            out += 8;
            std::uint64_t mask = 0;
            for (std::size_t i = 0; i < n; ++i) {
                // Branch-free compaction: every delta is stored, and
                // only a nonzero one advances past itself.
                const std::uint64_t bit = delta[i] != 0;
                mask |= bit << i;
                std::memcpy(out, &delta[i], sizeof(Word));
                out += bit * sizeof(Word);
            }
            std::memcpy(mask_at, &mask, 8);
        } else {
            *out++ = static_cast<std::uint8_t>(width);
            if (width == sizeof(Word)) {
                std::memcpy(out, delta, n * sizeof(Word));
            } else if (width == 1) {
                for (std::size_t i = 0; i < n; ++i)
                    out[i] = static_cast<std::uint8_t>(delta[i]);
            } else if (width != 0) {
                // Whole-word stores, each overwritten by the next.
                for (std::size_t i = 0; i < n; ++i)
                    std::memcpy(out + i * width, &delta[i], sizeof(Word));
            }
            out += n * width;
        }
        used_ += static_cast<std::size_t>(out - out_);
        out_ = out;
    }

    std::uint8_t *out_;
    std::size_t used_ = 0;
    Word prev_ = 0;
};

/**
 * Unpacks a lane whose framing scanLane() accepted, so no read needs a
 * bounds check beyond the lane's end. Each block expands to its 64
 * deltas, then one prefix-XOR pass rebuilds the words. The XOR chain
 * runs across get() calls; every get() but the last must take a whole
 * number of blocks.
 */
template <typename Word>
class LaneDecoder
{
  public:
    LaneDecoder(const std::uint8_t *p, std::size_t len)
        : p_(p), end_(p + len)
    {
    }

    /**
     * Decode the next @p words words into @p out, one every @p Stride
     * bytes (a record field's stride; packed by default).
     */
    template <std::size_t Stride = sizeof(Word)>
    void
    get(void *out, std::size_t words)
    {
        auto *o = static_cast<unsigned char *>(out);
        Word delta[kLaneBlockWords];
        // Locals, not members: byte stores through @p out could alias
        // a member and force a reload per word.
        Word prev = prev_;
        while (words > 0) {
            const std::size_t k = std::min(words, kLaneBlockWords);
            if (deltas(delta, k)) {
                for (std::size_t i = 0; i < k; ++i) {
                    prev = static_cast<Word>(prev ^ delta[i]);
                    std::memcpy(o + i * Stride, &prev, sizeof(Word));
                }
            } else {
                for (std::size_t i = 0; i < k; ++i)
                    std::memcpy(o + i * Stride, &prev, sizeof(Word));
            }
            o += k * Stride;
            words -= k;
        }
        prev_ = prev;
    }

  private:
    /**
     * Expand the next block, of @p k words, into @p delta; false (and
     * @p delta untouched) for a zero-width block.
     */
    bool
    deltas(Word *delta, std::size_t k)
    {
        const std::uint8_t *p = p_;
        const std::uint8_t header = *p++;
        // Whole-word loads may run up to a word past a block's body
        // when the lane has that much left; its last bytes are read
        // exactly.
        const auto left = static_cast<std::size_t>(end_ - p);
        if (header == kSparseBlock) {
            const std::uint64_t mask = loadWord(p);
            p += 8;
            if (std::popcount(mask) > 16 &&
                left >= 8 + (k + 1) * sizeof(Word)) {
                // Dense: a branch-free pass; every slot loads a word
                // and only a set bit keeps it and advances.
                for (std::size_t i = 0; i < k; ++i) {
                    const auto bit = static_cast<Word>((mask >> i) & 1);
                    Word d;
                    std::memcpy(&d, p, sizeof(Word));
                    delta[i] = static_cast<Word>(d & (Word{0} - bit));
                    p += bit * sizeof(Word);
                }
            } else {
                std::fill(delta, delta + k, Word{0});
                for (std::uint64_t m = mask; m != 0; m &= m - 1) {
                    std::memcpy(&delta[std::countr_zero(m)], p,
                                sizeof(Word));
                    p += sizeof(Word);
                }
            }
            p_ = p;
            return true;
        }
        const std::size_t width = header;
        p_ = p + k * width;
        if (width == 0)
            return false;
        if (width == sizeof(Word)) {
            std::memcpy(delta, p, k * sizeof(Word));
        } else if constexpr (sizeof(Word) > 1) {
            const auto keep =
                static_cast<Word>((std::uint64_t{1} << (8 * width)) - 1);
            if (left >= (k + 1) * width + sizeof(Word)) {
                for (std::size_t i = 0; i < k; ++i) {
                    Word d;
                    std::memcpy(&d, p + i * width, sizeof(Word));
                    delta[i] = static_cast<Word>(d & keep);
                }
            } else {
                for (std::size_t i = 0; i < k; ++i) {
                    delta[i] = 0;
                    std::memcpy(&delta[i], p + i * width, width);
                }
            }
        }
        return true;
    }

    const std::uint8_t *p_;
    const std::uint8_t *end_;
    Word prev_ = 0;
};

} // namespace detail

/**
 * The rig's id tables for the pointers that cross a checkpoint: frame
 * owners by address-space index (the kernel's balloon space by a
 * sentinel) and barrier waiters by actor index. Capture and restore
 * build the same rig in the same order, so an index names the same
 * object on both sides. The tables are flat pointer lists, so a
 * lookup is a short scan with no callback in between.
 */
struct StateLinks
{
    /** Owner id of a free frame. */
    static constexpr std::uint32_t kNoSpace = 0xFFFFFFFFu;
    /** Owner id of the MemoryManager's balloon space. */
    static constexpr std::uint32_t kBalloonSpace = 0xFFFFFFFEu;

    std::vector<AddressSpace *> spaces;
    AddressSpace *balloon = nullptr;
    std::vector<SimActor *> actors;

    /** Id of @p space, which must be in the tables. */
    std::uint32_t
    spaceId(const AddressSpace *space) const
    {
        const auto at = std::find(spaces.begin(), spaces.end(), space);
        if (at != spaces.end())
            return static_cast<std::uint32_t>(at - spaces.begin());
        assert(space == balloon && "frame owned by a space outside the rig");
        return kBalloonSpace;
    }

    /** The space @p id names; false when it names none. */
    bool
    spaceAt(std::uint32_t id, AddressSpace *&out) const
    {
        out = id < spaces.size() ? spaces[id]
              : id == kBalloonSpace ? balloon
                                    : nullptr;
        return out != nullptr || id == kNoSpace;
    }

    /** Index of @p actor, which must be in the tables. */
    std::uint32_t
    actorIndex(const SimActor *actor) const
    {
        const auto at = std::find(actors.begin(), actors.end(), actor);
        assert(at != actors.end() && "actor outside the rig");
        return static_cast<std::uint32_t>(at - actors.begin());
    }
};

/**
 * A record field that travels as owner ids in the link tables rather
 * than as pointer bits (see StateIO::recordLanes and StateIO::owner).
 */
template <typename Rec>
struct OwnerField
{
    AddressSpace *Rec::*member;
};

namespace detail
{

/**
 * How StateIO::recordLanes moves one field of a record array, a block
 * of records at a time. A plain field moves its bytes as one lane
 * word, read and written in place at the record stride.
 */
template <typename Rec, typename F>
struct FieldLane;

template <typename Rec, typename T>
struct FieldLane<Rec, T Rec::*>
{
    static_assert(std::is_trivially_copyable_v<T>);
    using Word = LaneWord<T>;
    static_assert(sizeof(T) == sizeof(Word),
                  "a record field packs as exactly one lane word");
    /** Decoded words need no check beyond the lane's framing. */
    static constexpr bool kIds = false;

    T Rec::*member;

    void
    save(LaneEncoder<Word> &enc, const Rec *r, std::size_t k,
         const StateLinks &)
    {
        enc.template put<sizeof(Rec)>(&(r->*member), k);
    }

    void
    load(LaneDecoder<Word> &dec, Rec *r, std::size_t k,
         const StateLinks &) const
    {
        dec.template get<sizeof(Rec)>(&(r->*member), k);
    }
};

/**
 * An owner field travels as u32 ids. Consecutive frames mostly share
 * an owner (allocation order yields runs), so Save looks an id up only
 * when the owner changes.
 */
template <typename Rec>
struct FieldLane<Rec, OwnerField<Rec>>
{
    using Word = std::uint32_t;
    /** Every decoded id must name a space in the link tables. */
    static constexpr bool kIds = true;

    OwnerField<Rec> field;
    /** The run being saved or loaded: its owner and id. */
    const AddressSpace *last = nullptr;
    AddressSpace *loaded = nullptr;
    Word lastId = StateLinks::kNoSpace;

    void
    save(LaneEncoder<Word> &enc, const Rec *r, std::size_t k,
         const StateLinks &links)
    {
        Word ids[kSweepRecords];
        for (std::size_t i = 0; i < k; ++i) {
            const AddressSpace *owner = r[i].*field.member;
            if (owner != nullptr && owner != last) {
                last = owner;
                lastId = links.spaceId(owner);
            }
            ids[i] = owner != nullptr ? lastId : StateLinks::kNoSpace;
        }
        enc.put(ids, k);
    }

    /** Every id names a space; ids are looked up once per run. */
    static bool
    valid(const Word *ids, std::size_t k, const StateLinks &links)
    {
        AddressSpace *owner = nullptr;
        for (std::size_t i = 0; i < k; ++i)
            if ((i == 0 || ids[i] != ids[i - 1]) &&
                !links.spaceAt(ids[i], owner))
                return false;
        return true;
    }

    /** Ids already passed valid(); looked up once per run. */
    void
    load(LaneDecoder<Word> &dec, Rec *r, std::size_t k,
         const StateLinks &links)
    {
        Word ids[kSweepRecords];
        dec.get(ids, k);
        for (std::size_t i = 0; i < k; ++i) {
            if (ids[i] != lastId) {
                lastId = ids[i];
                links.spaceAt(lastId, loaded);
            }
            r[i].*field.member = loaded;
        }
    }
};

} // namespace detail

/**
 * The checkpoint archive (see the file comment): one visitState body
 * per class, run in Save, Load, Check or Size mode. Not a template, so
 * virtual visitState overrides can take it.
 *
 * Decode failures (truncation, an id outside the link tables, an enum
 * out of range, a record not consumed exactly) latch ok() == false. A
 * decoded shape that disagrees with the live object (a lane or count
 * of another length, a failed expect) latches mismatched() too. Once
 * either is latched a Load stores nothing more.
 */
class StateIO
{
  public:
    enum class Mode
    {
        Save,
        Load,
        Check,
        Size,
    };

    /** Save mode: append every field to @p sink. */
    explicit
    StateIO(Sink &sink, const StateLinks *links = nullptr)
        : mode_(Mode::Save), sink_(&sink), links_(orNone(links))
    {
    }

    /** Load or Check mode over @p src. */
    StateIO(Source &src, const StateLinks *links, Mode mode = Mode::Load)
        : mode_(mode), src_(&src), links_(orNone(links))
    {
        assert(mode == Mode::Load || mode == Mode::Check);
    }

    /** Size mode: count the bytes a Save would append. */
    StateIO() : mode_(Mode::Size), links_(orNone(nullptr)) {}

    bool loading() const { return mode_ == Mode::Load; }

    /** Size mode: bytes counted so far (packed lanes at their bound). */
    std::size_t size() const { return size_; }

    /**
     * Size mode: the bytes counted so far with every lane at its raw
     * width (count, then the elements), as version-2 images stored
     * them. Benchmarks rate the codec over these input bytes.
     */
    std::size_t unpackedSize() const { return unpacked_; }

    bool ok() const { return src_ == nullptr || src_->ok(); }
    bool mismatched() const { return mismatch_; }

    /** Decoded cleanly, matched, and consumed the whole Source. */
    bool
    exhausted() const
    {
        return src_ != nullptr && src_->exhausted() && !mismatch_;
    }

    /**
     * Scalar fields. Each returns the value in the image (the live
     * value when saving or sizing), in Check mode too, so a body can
     * range-check decoded fields against each other with require()
     * before a Load has stored anything.
     */
    std::uint32_t u32(std::uint32_t &v) { return field(v); }
    std::uint64_t u64(std::uint64_t &v) { return field(v); }

    void
    f64(double &v)
    {
        std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
        raw(bits);
        if (loading() && ok())
            v = std::bit_cast<double>(bits);
    }

    bool
    boolean(bool &v)
    {
        std::uint8_t b = v ? 1 : 0;
        raw(b);
        if (loading() && ok())
            v = b != 0;
        return b != 0;
    }

    /**
     * Refuse the image unless @p valid: a decoded scalar outside the
     * range the object's invariants allow (an index, a window) fails
     * the decode in Check mode, before anything is applied.
     */
    void
    require(bool valid)
    {
        if (!valid)
            fail();
    }

    /** An enum stored as one byte; a value past @p last fails. */
    template <typename E>
    void
    enumU8(E &v, E last)
    {
        std::uint8_t b = static_cast<std::uint8_t>(v);
        raw(b);
        if (b > static_cast<std::uint8_t>(last))
            fail();
        else if (loading() && ok())
            v = static_cast<E>(b);
    }

    /**
     * A value the live object already holds and the image must agree
     * with (a replayed layout cursor, a configured count): written on
     * save, compared on decode.
     */
    template <typename T>
    void
    expect(T want)
    {
        T got = want;
        raw(got);
        if (ok() && got != want)
            mismatch();
    }

    /**
     * A POD array as a packed lane (see the file comment), at most
     * @p max elements on decode.
     */
    template <typename T>
    void
    podVec(std::vector<T> &v,
           std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
    {
        array(v, false, max);
    }

    /**
     * A POD array whose length is fixed by construction (a per-frame
     * metadata lane): any other decoded length is a mismatch.
     */
    template <typename T>
    void
    lane(std::vector<T> &v)
    {
        array(v, true, v.size());
    }

    /** A vector of visitable objects, at most @p max on decode. */
    template <typename T>
    void
    objects(std::vector<T> &v, std::uint64_t max)
    {
        std::uint64_t n = v.size();
        raw(n);
        if (n > max)
            return fail();
        if (mode_ == Mode::Check) {
            T scratch{};
            for (std::uint64_t i = 0; i < n && ok(); ++i)
                scratch.visitState(*this);
            return;
        }
        if (loading() && ok())
            v.resize(static_cast<std::size_t>(n));
        for (T &item : v)
            item.visitState(*this);
    }

    /** An optional visitable object; a decoded one starts as @p blank. */
    template <typename T>
    void
    optional(std::optional<T> &o, const T &blank)
    {
        std::uint8_t has = o.has_value() ? 1 : 0;
        raw(has);
        if (mode_ == Mode::Check) {
            T scratch = blank;
            if (has != 0)
                scratch.visitState(*this);
            return;
        }
        if (loading() && ok()) {
            if (has != 0)
                o.emplace(blank);
            else
                o.reset();
        }
        if (o)
            o->visitState(*this);
    }

    /**
     * A length-prefixed record that @p body(StateIO &) visits; on
     * decode the body must consume it exactly.
     */
    template <typename Body>
    void
    record(const Body &body)
    {
        if (mode_ == Mode::Save) {
            const std::size_t slot = sink_->size();
            sink_->u64(0);
            body(*this);
            sink_->patchU64(slot, sink_->size() - slot - 8);
            return;
        }
        std::uint64_t len = 0;
        raw(len);
        if (mode_ == Mode::Size)
            return body(*this);
        const std::uint8_t *p = src_->view(static_cast<std::size_t>(len));
        if (p == nullptr)
            return; // the Source latched the failure
        Source sub(p, static_cast<std::size_t>(len));
        StateIO io(sub, links_, mode_);
        body(io);
        if (io.mismatch_)
            mismatch();
        else if (!io.exhausted())
            fail();
    }

    /** An owner-pointer field for recordLanes (travels as ids). */
    template <typename Rec>
    static OwnerField<Rec>
    owner(AddressSpace *Rec::*member)
    {
        return {member};
    }

    /**
     * A record array whose length is fixed by construction (the frame
     * table), as one packed lane per field in @p fields order: each
     * lane has exactly the bytes lane() would write for a vector of
     * that field's values, and an owner() field has the bytes of a u32
     * lane of link-table ids. Fields are member pointers to 1-, 2-, 4-
     * or 8-byte members, or owner().
     *
     * Every mode makes a single sweep over the records in 64-record
     * blocks, each lane with its own encoder or decoder, so a record
     * is read or written once, not once per field. Save packs each lane
     * in place into its own slice of the lanes' Size bound, then slides
     * the packed lanes together (an untouched slice tail is never
     * resident). Load and Check first open every lane in order (count,
     * framing, and for owner() fields every id), so a Load that fails
     * writes no record; any count other than recs.size() is a
     * mismatch.
     */
    template <typename Rec, typename... Fields>
    void
    recordLanes(std::span<Rec> recs, Fields... fields)
    {
        recordLanesImpl(recs, std::index_sequence_for<Fields...>{},
                        detail::FieldLane<Rec, Fields>{fields}...);
    }

    /** A list of actors (barrier waiters) as link-table indices. */
    void
    actorList(std::vector<SimActor *> &actors)
    {
        std::uint64_t n = actors.size();
        raw(n);
        if (decoding() && n > src_->remaining() / sizeof(std::uint32_t))
            return fail();
        std::vector<SimActor *> decoded;
        for (std::uint64_t i = 0; i < n && ok(); ++i) {
            std::uint32_t index = mode_ == Mode::Save
                                      ? links_->actorIndex(actors[i])
                                      : 0;
            raw(index);
            if (decoding() && index >= links_->actors.size())
                return fail();
            if (decoding())
                decoded.push_back(links_->actors[index]);
        }
        if (loading() && ok())
            actors = std::move(decoded);
    }

  private:
    static const StateLinks *
    orNone(const StateLinks *links)
    {
        static const StateLinks kNone;
        return links != nullptr ? links : &kNone;
    }

    bool decoding() const { return src_ != nullptr; }

    void
    fail()
    {
        if (src_ != nullptr)
            src_->fail();
    }

    void
    mismatch()
    {
        mismatch_ = true;
        fail();
    }

    /**
     * Save or count @p v, or replace it with the decoded value (in
     * Check mode too: for locals the archive itself inspects).
     */
    template <typename T>
    void
    raw(T &v)
    {
        static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
        switch (mode_) {
          case Mode::Save:
            if constexpr (sizeof(T) == 1)
                sink_->u8(v);
            else if constexpr (sizeof(T) == 4)
                sink_->u32(v);
            else
                sink_->u64(v);
            return;
          case Mode::Size:
            size_ += sizeof(T);
            unpacked_ += sizeof(T);
            return;
          case Mode::Load:
          case Mode::Check:
            if constexpr (sizeof(T) == 1)
                v = src_->u8();
            else if constexpr (sizeof(T) == 4)
                v = src_->u32();
            else
                v = src_->u64();
            return;
        }
    }

    /** An object field: only a clean Load stores into it. */
    template <typename T>
    T
    field(T &v)
    {
        T x = v;
        raw(x);
        if (loading() && ok())
            v = x;
        return x;
    }

    /**
     * A lane's packed length and a view of its payload; nullptr (and
     * failure) when the length runs past the Source or cannot hold
     * @p n elements of @p words_per_elem words (every block takes at
     * least a byte), so a forged count fails before anything is
     * resized.
     */
    const std::uint8_t *
    openLane(std::uint64_t n, std::size_t words_per_elem, std::size_t &len)
    {
        std::uint64_t packed = 0;
        raw(packed);
        if (!ok() || packed > src_->remaining() ||
            n > packed * detail::kLaneBlockWords / words_per_elem) {
            fail();
            return nullptr;
        }
        len = static_cast<std::size_t>(packed);
        return src_->view(len);
    }

    /**
     * Count, then the packed lane. A decoded count the packed length
     * cannot hold fails before anything is resized; one past @p max
     * (or, when @p exact, other than v.size()) is a mismatch. The lane's
     * framing is checked whole before a Load stores anything; Check
     * mode stops there.
     */
    template <typename T>
    void
    array(std::vector<T> &v, bool exact, std::uint64_t max)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        using Word = detail::LaneWord<T>;
        constexpr std::size_t kPerElem = sizeof(T) / sizeof(Word);
        std::uint64_t n = v.size();
        raw(n);
        if (mode_ == Mode::Size) {
            size_ += detail::packedLaneBound(n * kPerElem, sizeof(Word)) - 8;
            unpacked_ += n * sizeof(T);
            return;
        }
        if (mode_ == Mode::Save) {
            const std::uint64_t words = n * kPerElem;
            const std::size_t at = sink_->size();
            detail::LaneEncoder<Word> enc(
                sink_->grow(detail::packedLaneBound(words, sizeof(Word)) -
                            8) +
                8);
            enc.put(v.data(), static_cast<std::size_t>(words));
            sink_->patchU64(at, enc.bytes());
            return sink_->truncate(at + 8 + enc.bytes());
        }
        std::size_t len = 0;
        const std::uint8_t *p = openLane(n, kPerElem, len);
        if (p == nullptr)
            return;
        if (n > max || (exact && n != v.size()))
            return mismatch();
        const std::uint64_t words = n * kPerElem;
        if (!detail::scanLane(p, len, words, sizeof(Word)))
            return fail();
        if (!loading())
            return;
        v.resize(static_cast<std::size_t>(n));
        detail::LaneDecoder<Word>(p, len).get(v.data(),
                                              static_cast<std::size_t>(words));
    }

    template <typename Rec, std::size_t... I, typename... Lanes>
    void
    recordLanesImpl(std::span<Rec> recs, std::index_sequence<I...>,
                    Lanes... lanes)
    {
        constexpr std::size_t kLanes = sizeof...(Lanes);
        const std::uint64_t n = recs.size();
        const std::size_t bound[kLanes] = {static_cast<std::size_t>(
            detail::packedLaneBound(n, sizeof(typename Lanes::Word)))...};
        if (mode_ == Mode::Size) {
            for (const std::size_t b : bound)
                size_ += b;
            unpacked_ += ((8 + n * sizeof(typename Lanes::Word)) + ...);
            return;
        }
        if (mode_ == Mode::Save) {
            // Lane k packs into its own slice of the lanes' bounds,
            // starting where the bounds of lanes 0..k-1 end.
            std::size_t slice[kLanes];
            std::size_t total = 0;
            for (std::size_t k = 0; k < kLanes; ++k) {
                slice[k] = total;
                total += bound[k];
            }
            const std::size_t base = sink_->size();
            std::uint8_t *const region = sink_->grow(total);
            std::tuple<detail::LaneEncoder<typename Lanes::Word>...> enc(
                (region + slice[I] + 16)...);
            sweep(recs, enc, lanes...);
            // Slide each packed lane down behind the one before it; a
            // lane never moves past its own slice's start. Once a lane
            // has moved, its slice past the packed end is scratch: hand
            // those pages back at once, so the slices and the packed
            // lanes are never both resident.
            const std::size_t len[kLanes] = {std::get<I>(enc).bytes()...};
            std::size_t end = 0;
            for (const std::size_t l : len)
                end += 16 + l;
            std::size_t to = 0;
            for (std::size_t k = 0; k < kLanes; ++k) {
                to = packSlice(region, slice[k], to, n, len[k]);
                releasePages(region + std::max(end, slice[k]),
                             region + slice[k] + bound[k]);
            }
            return sink_->truncate(base + to);
        }
        const std::uint8_t *at[kLanes] = {};
        std::size_t len[kLanes] = {};
        if (!(openRecordLane(lanes, n, at[I], len[I]) && ...) || !loading())
            return;
        std::tuple<detail::LaneDecoder<typename Lanes::Word>...> dec(
            detail::LaneDecoder<typename Lanes::Word>(at[I], len[I])...);
        for (std::size_t first = 0; first < n;
             first += detail::kSweepRecords) {
            const std::size_t k = std::min<std::size_t>(
                detail::kSweepRecords, n - first);
            Rec *r = recs.data() + first;
            // Claim the next step's lines while this one decodes: the
            // first lane to write a line would otherwise wait on it.
            if (first + k < n) {
                const auto *next = reinterpret_cast<const char *>(r + k);
                const std::size_t ahead =
                    std::min<std::size_t>(detail::kSweepRecords,
                                          n - first - k) *
                    sizeof(Rec);
                for (std::size_t b = 0; b < ahead; b += 64)
                    __builtin_prefetch(next + b, 1);
            }
            (lanes.load(std::get<I>(dec), r, k, *links_), ...);
        }
    }

    /** The Save sweep: every lane's encoder, a step of records at a time. */
    template <typename Rec, typename Encoders, typename... Lanes>
    void
    sweep(std::span<Rec> recs, Encoders &enc, Lanes &...lanes)
    {
        sweepImpl(recs, enc, std::index_sequence_for<Lanes...>{}, lanes...);
    }

    template <typename Rec, typename Encoders, std::size_t... I,
              typename... Lanes>
    void
    sweepImpl(std::span<Rec> recs, Encoders &enc, std::index_sequence<I...>,
              Lanes &...lanes)
    {
        for (std::size_t at = 0; at < recs.size();
             at += detail::kSweepRecords) {
            const std::size_t k = std::min<std::size_t>(
                detail::kSweepRecords, recs.size() - at);
            const Rec *r = recs.data() + at;
            (lanes.save(std::get<I>(enc), r, k, *links_), ...);
        }
    }

    /**
     * Frame the lane packed at @p slice in @p region (count, packed
     * length, then its @p len payload bytes) at @p to; returns where
     * the next lane goes.
     */
    static std::size_t
    packSlice(std::uint8_t *region, std::size_t slice, std::size_t to,
              std::uint64_t n, std::size_t len)
    {
        if (to != slice)
            std::memmove(region + to + 16, region + slice + 16, len);
        const std::uint64_t head[2] = {n, len};
        std::memcpy(region + to, head, sizeof(head));
        return to + 16 + len;
    }

    /**
     * Decode one record lane's count and framing (and, for owner
     * fields, every id); false once the Source failed or mismatched.
     */
    template <typename Lane>
    bool
    openRecordLane(const Lane &, std::uint64_t n, const std::uint8_t *&p,
                   std::size_t &len)
    {
        using Word = typename Lane::Word;
        std::uint64_t count = n;
        raw(count);
        p = openLane(count, 1, len);
        if (p == nullptr)
            return false;
        if (count != n) {
            mismatch();
            return false;
        }
        if (!detail::scanLane(p, len, count, sizeof(Word))) {
            fail();
            return false;
        }
        if constexpr (Lane::kIds) {
            detail::LaneDecoder<Word> dec(p, len);
            Word ids[detail::kLaneBlockWords];
            for (std::uint64_t at = 0; at < n;
                 at += detail::kLaneBlockWords) {
                const std::size_t k = static_cast<std::size_t>(
                    std::min<std::uint64_t>(detail::kLaneBlockWords,
                                            n - at));
                dec.get(ids, k);
                if (!Lane::valid(ids, k, *links_)) {
                    fail();
                    return false;
                }
            }
        }
        return true;
    }

    Mode mode_;
    Sink *sink_ = nullptr;
    Source *src_ = nullptr;
    const StateLinks *links_;
    std::size_t size_ = 0;
    std::size_t unpacked_ = 0;
    bool mismatch_ = false;
};

} // namespace pagesim

#endif // PAGESIM_SIM_SERIALIZE_HH
