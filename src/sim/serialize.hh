/**
 * @file
 * Binary serialization primitives for simulator checkpoints.
 *
 * Sink appends little-endian scalars and raw POD arrays to a byte
 * buffer; Source reads them back with bounds checks. Neither throws:
 * a Source that runs past its buffer latches ok() == false and returns
 * zeros, so checkpoint loading can validate once at the end instead of
 * wrapping every read. podVec() moves whole SoA lanes with one memcpy,
 * which is what keeps 64M-page snapshots at memory-bandwidth speed.
 *
 * The encoding is deliberately dumb — fixed-width, no varints, no
 * tags — because checkpoints are checksummed (checksum64) and
 * version-gated at the section level (see harness/checkpoint.hh);
 * the byte stream only needs to be deterministic, not evolvable.
 *
 * A little-endian host is assumed (and asserted at compile time):
 * podVec() copies lanes in host byte order and checksum64() loads
 * host-order words, while the scalar writers spell out little-endian.
 * On such a host all three agree, so an image is portable between
 * little-endian machines.
 *
 * Sink::patchU64() and Sink::take() let a caller build a framed image
 * in one buffer: reserve a length or checksum slot, serialize the
 * payload straight after it, backfill the slot over the payload span,
 * and move the finished buffer out. Each payload byte is written once.
 */

#ifndef PAGESIM_SIM_SERIALIZE_HH
#define PAGESIM_SIM_SERIALIZE_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>
#include <vector>

namespace pagesim
{

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

/** FNV-1a over a NUL-terminated string (used for config hashing). */
inline std::uint64_t
fnv1aStr(const char *s, std::uint64_t h = kFnvOffset)
{
    return fnv1a(s, std::strlen(s), h);
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

/** Bytes Sink::podVec(@p v) appends: the count, then the elements. */
template <typename T>
std::size_t
podVecBytes(const std::vector<T> &v)
{
    return 8 + v.size() * sizeof(T);
}

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
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

    void boolean(bool v) { u8(v ? 1 : 0); }

    void
    bytes(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + len);
    }

    /**
     * A whole POD array: element count then raw bytes. The single
     * memcpy (not a per-element loop) is the checkpoint throughput
     * path for SoA metadata lanes.
     */
    template <typename T>
    void
    podVec(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        u64(v.size());
        if (!v.empty())
            bytes(v.data(), v.size() * sizeof(T));
    }

    /**
     * Capacity hint for bulk captures. Growing a multi-hundred-MB
     * buffer by geometric doubling re-copies the accumulated bytes
     * several times over; a caller that knows its footprint (SoA
     * lane sums, section payload totals) reserves once instead.
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

    const std::vector<std::uint8_t> &data() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

    /** Move the buffer out (no copy); the Sink is left empty. */
    std::vector<std::uint8_t>
    take() &&
    {
        return std::move(buf_);
    }

  private:
    std::vector<std::uint8_t> buf_;
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

    double f64() { return std::bit_cast<double>(u64()); }

    bool boolean() { return u8() != 0; }

    void
    bytes(void *out, std::size_t len)
    {
        if (!take(len)) {
            std::memset(out, 0, len);
            return;
        }
        std::memcpy(out, p_ + off_ - len, len);
    }

    template <typename T>
    void
    podVec(std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const std::uint64_t n = u64();
        // Reject counts the remaining bytes cannot hold before
        // resizing: a corrupt length must not trigger a huge
        // allocation.
        if (!ok_ || n > (len_ - off_) / sizeof(T)) {
            ok_ = false;
            v.clear();
            return;
        }
        v.resize(static_cast<std::size_t>(n));
        if (n != 0)
            bytes(v.data(), v.size() * sizeof(T));
    }

    /**
     * Step over a podVec() record without copying it and return its
     * element count (0 after a failed read). Lets a validator check
     * lane shapes before any state is applied.
     */
    template <typename T>
    std::uint64_t
    skipPodVec()
    {
        const std::uint64_t n = u64();
        if (!ok_ || n > (len_ - off_) / sizeof(T)) {
            ok_ = false;
            return 0;
        }
        off_ += static_cast<std::size_t>(n) * sizeof(T);
        return n;
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

} // namespace pagesim

#endif // PAGESIM_SIM_SERIALIZE_HH
