/**
 * @file
 * Binary serialization primitives for simulator checkpoints.
 *
 * Sink appends little-endian scalars and raw bytes to a buffer;
 * Source reads them back with bounds checks. Neither throws: a Source
 * that runs past its buffer latches ok() == false and returns zeros,
 * so checkpoint loading can validate once at the end instead of
 * wrapping every read. StateIO::podVec() moves whole SoA lanes with
 * one memcpy, which is what keeps 64M-page snapshots at
 * memory-bandwidth speed.
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
 *   Size   count the bytes Save would append, touch nothing.
 *
 * Because one body serves every mode, a field cannot be written but
 * not read back, or read in another order. io.loading() marks the few
 * steps that really differ between directions. Check mode lets a
 * restore validate a whole image (lane and record counts, link ids,
 * enum ranges, layout checks) before any state is applied. It stores
 * nothing, so a body must not let a decoded value steer its control
 * flow except through the archive's own ops (objects, optional,
 * record, actorList), which decode what they branch on themselves.
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
#include <type_traits>
#include <utility>
#include <vector>

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

    /** Size mode: bytes counted so far. */
    std::size_t size() const { return size_; }

    bool ok() const { return src_ == nullptr || src_->ok(); }
    bool mismatched() const { return mismatch_; }

    /** Decoded cleanly, matched, and consumed the whole Source. */
    bool
    exhausted() const
    {
        return src_ != nullptr && src_->exhausted() && !mismatch_;
    }

    void u32(std::uint32_t &v) { field(v); }
    void u64(std::uint64_t &v) { field(v); }

    void
    f64(double &v)
    {
        std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
        raw(bits);
        if (loading() && ok())
            v = std::bit_cast<double>(bits);
    }

    void
    boolean(bool &v)
    {
        std::uint8_t b = v ? 1 : 0;
        raw(b);
        if (loading() && ok())
            v = b != 0;
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
     * A POD array (count, then raw bytes in one memcpy: the throughput
     * path for SoA lanes), at most @p max elements on decode.
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

    /**
     * The frame-owner lane, as ids in the link tables. Consecutive
     * frames mostly share an owner (allocation order yields runs), so
     * Save looks an id up only when the owner changes.
     */
    void
    ownerLane(std::vector<AddressSpace *> &owners)
    {
        if (mode_ == Mode::Size) {
            size_ += 8 + owners.size() * sizeof(std::uint32_t);
            return;
        }
        if (mode_ == Mode::Save) {
            std::vector<std::uint32_t> ids(owners.size(),
                                           StateLinks::kNoSpace);
            const AddressSpace *last = nullptr;
            std::uint32_t lastId = StateLinks::kNoSpace;
            for (std::size_t i = 0; i < owners.size(); ++i) {
                if (owners[i] != nullptr && owners[i] != last) {
                    last = owners[i];
                    lastId = links_->spaceId(last);
                }
                if (owners[i] != nullptr)
                    ids[i] = lastId;
            }
            return lane(ids);
        }
        // Decoded in place, in Check mode too: every id is validated.
        std::uint64_t n = owners.size();
        raw(n);
        if (!ok())
            return;
        if (n != owners.size())
            return mismatch();
        constexpr std::size_t kIdBytes = sizeof(std::uint32_t);
        const std::uint8_t *p = src_->view(owners.size() * kIdBytes);
        for (std::size_t i = 0; p != nullptr && i < owners.size(); ++i) {
            std::uint32_t id = 0;
            std::memcpy(&id, p + kIdBytes * i, kIdBytes);
            AddressSpace *owner = nullptr;
            if (!links_->spaceAt(id, owner))
                return fail();
            if (loading())
                owners[i] = owner;
        }
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
    void
    field(T &v)
    {
        T x = v;
        raw(x);
        if (loading() && ok())
            v = x;
    }

    /**
     * Count, then elements. A decoded count the remaining bytes cannot
     * hold fails before anything is resized; one past @p max (or, when
     * @p exact, other than v.size()) is a mismatch. Check mode steps
     * over the elements.
     */
    template <typename T>
    void
    array(std::vector<T> &v, bool exact, std::uint64_t max)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint64_t n = v.size();
        raw(n);
        if (mode_ == Mode::Save)
            return sink_->bytes(v.data(), v.size() * sizeof(T));
        if (mode_ == Mode::Size) {
            size_ += v.size() * sizeof(T);
            return;
        }
        if (!ok() || n > src_->remaining() / sizeof(T))
            return fail();
        if (n > max || (exact && n != v.size()))
            return mismatch();
        const std::size_t len = static_cast<std::size_t>(n) * sizeof(T);
        if (!loading()) {
            src_->view(len);
            return;
        }
        v.resize(static_cast<std::size_t>(n));
        src_->bytes(v.data(), len);
    }

    Mode mode_;
    Sink *sink_ = nullptr;
    Source *src_ = nullptr;
    const StateLinks *links_;
    std::size_t size_ = 0;
    bool mismatch_ = false;
};

} // namespace pagesim

#endif // PAGESIM_SIM_SERIALIZE_HH
