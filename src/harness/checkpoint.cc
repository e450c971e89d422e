#include "harness/checkpoint.hh"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "kernel/memory_manager.hh"
#include "mem/address_space.hh"
#include "mem/frame_table.hh"
#include "sim/actor.hh"
#include "sim/serialize.hh"
#include "sim/simulation.hh"
#include "swap/swap_manager.hh"
#include "workload/barrier.hh"
#include "workload/workload.hh"

namespace pagesim
{

namespace
{

/** "PGSMCKP1" read as a little-endian u64. */
constexpr std::uint64_t kCheckpointMagic = 0x31504b434d534750ull;

/**
 * Frame-owner sentinel for the MemoryManager's internal balloon space,
 * which is not part of the rig's space list. Distinct from
 * FrameTable::kNoSpaceId (unowned).
 */
constexpr std::uint32_t kBalloonSpaceId = 0xFFFFFFFEu;

/** Required sections, in encode/apply order. */
const char *const kSectionNames[] = {
    "sim",   "spaces", "frames", "mm",
    "swap",  "workloads", "actors", "barriers",
};
constexpr std::size_t kSectionCount =
    sizeof(kSectionNames) / sizeof(kSectionNames[0]);

/**
 * Capture reserve beyond the page-table and frame lanes: the header,
 * section framing and the small sections (sim, mm, swap, workloads,
 * actors, barriers), ~32 KiB together on a Big1M machine.
 */
constexpr std::size_t kImageSlackBytes = std::size_t{1} << 20;

CheckpointError
makeError(CheckpointError::Kind kind, std::string message)
{
    CheckpointError e;
    e.kind = kind;
    e.message = std::move(message);
    return e;
}

/** One decoded section: a view into the image's byte buffer. */
struct ParsedSection
{
    std::string name;
    const std::uint8_t *data = nullptr;
    std::uint64_t len = 0;
};

struct ParsedImage
{
    std::uint32_t version = 0;
    std::uint64_t configHash = 0;
    std::uint64_t seed = 0;
    std::uint64_t when = 0;
    std::uint64_t refs = 0;
    std::vector<ParsedSection> sections;

    const ParsedSection *
    section(const char *name) const
    {
        for (const ParsedSection &s : sections)
            if (s.name == name)
                return &s;
        return nullptr;
    }
};

/** Raw little-endian reader over a byte range (parse phase only). */
struct RawCursor
{
    const std::uint8_t *p;
    std::size_t len;
    std::size_t off = 0;
    bool ok = true;

    bool
    take(std::size_t n)
    {
        if (!ok || len - off < n) {
            ok = false;
            return false;
        }
        off += n;
        return true;
    }

    std::uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(p[off - 4 + i]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(p[off - 8 + i]) << (8 * i);
        return v;
    }

    const std::uint8_t *
    slice(std::size_t n)
    {
        if (!take(n))
            return nullptr;
        return p + off - n;
    }
};

/**
 * Append a u64 length slot, run @p body (which appends the record),
 * then backfill the slot with the record's byte length.
 */
template <typename Body>
void
writeRecord(Sink &sink, const Body &body)
{
    const std::size_t slot = sink.size();
    sink.u64(0);
    body();
    sink.patchU64(slot, sink.size() - slot - 8);
}

/**
 * Append one framed section: name, then length and checksum slots,
 * then the payload @p body writes in place. Both slots are backfilled
 * over the payload span, so the payload is never staged or re-copied.
 */
template <typename Body>
void
writeSection(Sink &image, const char *name, const Body &body)
{
    const std::size_t name_len = std::strlen(name);
    image.u32(static_cast<std::uint32_t>(name_len));
    image.bytes(name, name_len);
    const std::size_t slot = image.size();
    image.u64(0); // payload length
    image.u64(0); // payload checksum
    const std::size_t begin = slot + 16;
    body();
    const std::size_t len = image.size() - begin;
    image.patchU64(slot, len);
    image.patchU64(slot + 8, checksum64(image.data().data() + begin, len));
}

/**
 * Decode the image layout and validate EVERYTHING that can be checked
 * without touching a rig: magic, version, per-section bounds, and
 * every section checksum. After this returns ok(), a later apply
 * can only fail on a semantic mismatch, never on corruption.
 */
CheckpointError
parseImage(const std::vector<std::uint8_t> &bytes, ParsedImage &out)
{
    RawCursor cur{bytes.data(), bytes.size()};

    const std::uint64_t magic = cur.u64();
    if (!cur.ok)
        return makeError(CheckpointError::Kind::Truncated,
                         "image shorter than the checkpoint header");
    if (magic != kCheckpointMagic)
        return makeError(CheckpointError::Kind::BadMagic,
                         "not a checkpoint image (bad magic)");

    out.version = cur.u32();
    if (cur.ok && out.version != kCheckpointVersion)
        return makeError(CheckpointError::Kind::VersionMismatch,
                         "checkpoint format version " +
                             std::to_string(out.version) +
                             " (this build reads " +
                             std::to_string(kCheckpointVersion) + ")");

    out.configHash = cur.u64();
    out.seed = cur.u64();
    out.when = cur.u64();
    out.refs = cur.u64();
    const std::uint32_t nsections = cur.u32();
    if (!cur.ok)
        return makeError(CheckpointError::Kind::Truncated,
                         "image shorter than the checkpoint header");

    out.sections.clear();
    for (std::uint32_t i = 0; i < nsections; ++i) {
        ParsedSection sec;
        const std::uint32_t name_len = cur.u32();
        const std::uint8_t *name = cur.slice(name_len);
        const std::uint64_t payload_len = cur.u64();
        const std::uint64_t fp = cur.u64();
        const std::uint8_t *payload =
            cur.slice(static_cast<std::size_t>(payload_len));
        if (!cur.ok)
            return makeError(CheckpointError::Kind::Truncated,
                             "image truncated inside section " +
                                 std::to_string(i));
        sec.name.assign(reinterpret_cast<const char *>(name), name_len);
        sec.data = payload;
        sec.len = payload_len;
        if (checksum64(payload, static_cast<std::size_t>(payload_len)) !=
            fp)
            return makeError(
                CheckpointError::Kind::FingerprintMismatch,
                "section '" + sec.name + "' checksum mismatch");
        out.sections.push_back(std::move(sec));
    }
    if (cur.off != cur.len)
        return makeError(CheckpointError::Kind::Truncated,
                         "trailing bytes after the last section");
    return {};
}

} // namespace

const char *
checkpointErrorKindName(CheckpointError::Kind kind)
{
    switch (kind) {
      case CheckpointError::Kind::None:
        return "none";
      case CheckpointError::Kind::Io:
        return "io";
      case CheckpointError::Kind::Truncated:
        return "truncated";
      case CheckpointError::Kind::BadMagic:
        return "bad-magic";
      case CheckpointError::Kind::VersionMismatch:
        return "version-mismatch";
      case CheckpointError::Kind::ConfigMismatch:
        return "config-mismatch";
      case CheckpointError::Kind::FingerprintMismatch:
        return "fingerprint-mismatch";
      case CheckpointError::Kind::SectionMissing:
        return "section-missing";
      case CheckpointError::Kind::Unsupported:
        return "unsupported";
      case CheckpointError::Kind::NotQuiescent:
        return "not-quiescent";
    }
    return "unknown";
}

CheckpointError
captureCheckpoint(const RigView &rig, std::uint64_t config_hash,
                  std::uint64_t seed, std::uint64_t refs,
                  Checkpoint &out)
{
    assert(rig.sim && rig.mm && rig.frames && rig.swap);
    if (!rig.mm->quiescentForCheckpoint())
        return makeError(
            CheckpointError::Kind::NotQuiescent,
            "capture requested while I/O, waiters, or metrics are "
            "live");

    const auto space_id =
        [&rig](const AddressSpace &space) -> std::uint32_t {
        for (std::size_t i = 0; i < rig.spaces.size(); ++i)
            if (rig.spaces[i] == &space)
                return static_cast<std::uint32_t>(i);
        assert(&space == &rig.mm->balloonSpace() &&
               "frame owned by a space outside the rig");
        return kBalloonSpaceId;
    };
    const auto actor_index =
        [&rig](const SimActor &actor) -> std::uint32_t {
        for (std::size_t i = 0; i < rig.actors.size(); ++i)
            if (rig.actors[i] == &actor)
                return static_cast<std::uint32_t>(i);
        assert(false && "barrier waiter outside the rig's actor list");
        return 0;
    };

    // The page-table and frame lanes are nearly the whole image and
    // their sizes are known exactly: reserve them (plus slack for the
    // framing and the small sections) so the buffer is allocated and
    // first touched once, never re-copied by a geometric grow. An
    // image past the estimate still encodes correctly, just slower.
    std::size_t lane_bytes = rig.frames->stateBytes();
    for (const AddressSpace *space : rig.spaces)
        lane_bytes += 8 + space->stateBytes();
    Sink image;
    image.reserve(lane_bytes + kImageSlackBytes);
    image.u64(kCheckpointMagic);
    image.u32(kCheckpointVersion);
    image.u64(config_hash);
    image.u64(seed);
    image.u64(rig.sim->now());
    image.u64(refs);
    image.u32(static_cast<std::uint32_t>(kSectionCount));

    std::size_t s = 0;
    const auto section = [&image, &s](const auto &body) {
        writeSection(image, kSectionNames[s++], body);
    };

    section([&] { rig.sim->saveState(image); }); // sim
    section([&] {                                // spaces
        image.u32(static_cast<std::uint32_t>(rig.spaces.size()));
        for (const AddressSpace *space : rig.spaces)
            writeRecord(image, [&] { space->saveState(image); });
    });
    section([&] { rig.frames->saveState(image, space_id); }); // frames
    section([&] { rig.mm->saveState(image, space_id); });     // mm
    section([&] { rig.swap->saveState(image); });             // swap
    section([&] {                                             // workloads
        image.u32(static_cast<std::uint32_t>(rig.workloads.size()));
        for (const Workload *wl : rig.workloads)
            writeRecord(image, [&] { wl->saveState(image); });
    });
    section([&] { // actors
        image.u32(static_cast<std::uint32_t>(rig.actors.size()));
        for (const SimActor *actor : rig.actors)
            writeRecord(image, [&] { actor->saveState(image); });
    });
    section([&] { // barriers
        for (Workload *wl : rig.workloads) {
            std::vector<SimBarrier *> barriers;
            wl->forEachBarrier(
                [&barriers](SimBarrier &b) { barriers.push_back(&b); });
            image.u32(static_cast<std::uint32_t>(barriers.size()));
            for (const SimBarrier *b : barriers)
                b->saveState(image, actor_index);
        }
    });
    assert(s == kSectionCount);

    out.configHash = config_hash;
    out.seed = seed;
    out.when = rig.sim->now();
    out.refs = refs;
    out.bytes = std::move(image).take();
    return {};
}

CheckpointError
restoreCheckpoint(const RigView &rig, std::uint64_t config_hash,
                  std::uint64_t seed, const Checkpoint &ckpt)
{
    assert(rig.sim && rig.mm && rig.frames && rig.swap);

    // ---- Validation: nothing below touches the rig. -----------------
    ParsedImage img;
    if (CheckpointError e = parseImage(ckpt.bytes, img); !e.ok())
        return e;
    if (img.configHash != config_hash || img.seed != seed)
        return makeError(CheckpointError::Kind::ConfigMismatch,
                         "checkpoint was produced by a different "
                         "configuration or seed");
    for (const char *name : kSectionNames)
        if (img.section(name) == nullptr)
            return makeError(CheckpointError::Kind::SectionMissing,
                             std::string("section '") + name +
                                 "' missing");

    // Layout replay check: a restore rig rebuilt the workload from the
    // same config/seed, so every space's bump-allocator cursor must
    // match the recorded one. Peeked here, before any state moves.
    {
        const ParsedSection &sec = *img.section("spaces");
        RawCursor cur{sec.data, static_cast<std::size_t>(sec.len)};
        const std::uint32_t count = cur.u32();
        if (count != rig.spaces.size())
            return makeError(CheckpointError::Kind::ConfigMismatch,
                             "checkpoint has " + std::to_string(count) +
                                 " spaces, rig has " +
                                 std::to_string(rig.spaces.size()));
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint64_t len = cur.u64();
            RawCursor peek{cur.slice(static_cast<std::size_t>(len)),
                           static_cast<std::size_t>(len)};
            if (!cur.ok)
                return makeError(CheckpointError::Kind::Truncated,
                                 "spaces section truncated");
            const std::uint64_t recorded = peek.u64();
            if (!peek.ok || recorded != rig.spaces[i]->nextVpn())
                return makeError(
                    CheckpointError::Kind::ConfigMismatch,
                    "space " + std::to_string(i) +
                        " layout differs from the checkpoint");
        }
    }
    {
        const ParsedSection &sec = *img.section("frames");
        if (!rig.frames->stateShapeMatches(
                Source(sec.data, static_cast<std::size_t>(sec.len))))
            return makeError(CheckpointError::Kind::ConfigMismatch,
                             "checkpoint frame table does not match the "
                             "rig's " +
                                 std::to_string(
                                     rig.frames->totalFrames()) +
                                 " frames");
    }
    {
        RawCursor cur{img.section("workloads")->data,
                      static_cast<std::size_t>(
                          img.section("workloads")->len)};
        if (cur.u32() != rig.workloads.size())
            return makeError(CheckpointError::Kind::ConfigMismatch,
                             "workload count differs");
    }
    {
        RawCursor cur{img.section("actors")->data,
                      static_cast<std::size_t>(
                          img.section("actors")->len)};
        if (cur.u32() != rig.actors.size())
            return makeError(CheckpointError::Kind::ConfigMismatch,
                             "actor count differs");
    }

    // ---- Apply. A failure past this point means a format bug; the
    // caller must discard the half-restored rig. ----------------------
    const auto decodeFail = [](const char *name) {
        return makeError(CheckpointError::Kind::Unsupported,
                         std::string("section '") + name +
                             "' failed to decode");
    };
    const auto space_at = [&rig](std::uint32_t id) -> AddressSpace * {
        if (id == kBalloonSpaceId)
            return &rig.mm->balloonSpace();
        assert(id < rig.spaces.size());
        return rig.spaces[id];
    };

    rig.sim->events().restoreClock(img.when);

    {
        const ParsedSection &sec = *img.section("sim");
        Source src(sec.data, static_cast<std::size_t>(sec.len));
        rig.sim->restoreState(src);
        if (!src.exhausted())
            return decodeFail("sim");
    }
    {
        const ParsedSection &sec = *img.section("spaces");
        RawCursor cur{sec.data, static_cast<std::size_t>(sec.len)};
        const std::uint32_t count = cur.u32();
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint64_t len = cur.u64();
            const std::uint8_t *payload =
                cur.slice(static_cast<std::size_t>(len));
            Source src(payload, static_cast<std::size_t>(len));
            if (!rig.spaces[i]->restoreState(src) || !src.exhausted())
                return decodeFail("spaces");
        }
    }
    {
        const ParsedSection &sec = *img.section("frames");
        Source src(sec.data, static_cast<std::size_t>(sec.len));
        rig.frames->restoreState(src, space_at);
        if (!src.exhausted())
            return decodeFail("frames");
    }
    {
        const ParsedSection &sec = *img.section("mm");
        Source src(sec.data, static_cast<std::size_t>(sec.len));
        rig.mm->restoreState(src, space_at);
        if (!src.exhausted())
            return decodeFail("mm");
    }
    {
        const ParsedSection &sec = *img.section("swap");
        Source src(sec.data, static_cast<std::size_t>(sec.len));
        rig.swap->restoreState(src);
        if (!src.exhausted())
            return decodeFail("swap");
    }
    {
        const ParsedSection &sec = *img.section("workloads");
        RawCursor cur{sec.data, static_cast<std::size_t>(sec.len)};
        const std::uint32_t count = cur.u32();
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint64_t len = cur.u64();
            const std::uint8_t *payload =
                cur.slice(static_cast<std::size_t>(len));
            Source src(payload, static_cast<std::size_t>(len));
            rig.workloads[i]->restoreState(src);
            if (!src.exhausted())
                return decodeFail("workloads");
        }
    }
    {
        const ParsedSection &sec = *img.section("actors");
        RawCursor cur{sec.data, static_cast<std::size_t>(sec.len)};
        const std::uint32_t count = cur.u32();
        for (std::uint32_t i = 0; i < count; ++i) {
            const std::uint64_t len = cur.u64();
            const std::uint8_t *payload =
                cur.slice(static_cast<std::size_t>(len));
            Source src(payload, static_cast<std::size_t>(len));
            rig.actors[i]->restoreState(src);
            if (!src.exhausted())
                return decodeFail("actors");
        }
    }
    {
        const ParsedSection &sec = *img.section("barriers");
        Source src(sec.data, static_cast<std::size_t>(sec.len));
        const auto actor_at = [&rig](std::uint32_t i) -> SimActor & {
            assert(i < rig.actors.size());
            return *rig.actors[i];
        };
        for (Workload *wl : rig.workloads) {
            std::vector<SimBarrier *> barriers;
            wl->forEachBarrier(
                [&barriers](SimBarrier &b) { barriers.push_back(&b); });
            const std::uint32_t count = src.u32();
            if (count != barriers.size())
                return decodeFail("barriers");
            for (SimBarrier *b : barriers)
                b->restoreState(src, actor_at);
        }
        if (!src.exhausted())
            return decodeFail("barriers");
    }

    // Re-create each actor's pending event in the saved (when, seq)
    // order: fresh sequence numbers are assigned ascending, so the
    // dispatch-order relation among same-timestamp events survives.
    std::vector<SimActor *> pending;
    for (SimActor *actor : rig.actors)
        if (actor->hasPendingEvent())
            pending.push_back(actor);
    std::sort(pending.begin(), pending.end(),
              [](const SimActor *a, const SimActor *b) {
                  if (a->pendingAt() != b->pendingAt())
                      return a->pendingAt() < b->pendingAt();
                  return a->pendingSeq() < b->pendingSeq();
              });
    for (SimActor *actor : pending)
        actor->reschedulePending();

    return {};
}

CheckpointError
saveCheckpointFile(const std::string &path, const Checkpoint &ckpt)
{
    static std::atomic<std::uint64_t> counter{0};
    const std::string tmp =
        path + ".tmp" + std::to_string(counter.fetch_add(1));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return makeError(CheckpointError::Kind::Io,
                             "cannot open '" + tmp + "' for writing");
        out.write(reinterpret_cast<const char *>(ckpt.bytes.data()),
                  static_cast<std::streamsize>(ckpt.bytes.size()));
        if (!out)
            return makeError(CheckpointError::Kind::Io,
                             "short write to '" + tmp + "'");
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        std::filesystem::remove(tmp, ec);
        return makeError(CheckpointError::Kind::Io,
                         "cannot rename into '" + path + "'");
    }
    return {};
}

CheckpointError
loadCheckpointFile(const std::string &path, Checkpoint &out)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return makeError(CheckpointError::Kind::Io,
                         "cannot open '" + path + "'");
    const std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<std::uint8_t> bytes(
        static_cast<std::size_t>(size > 0 ? size : 0));
    if (!bytes.empty() &&
        !in.read(reinterpret_cast<char *>(bytes.data()), size))
        return makeError(CheckpointError::Kind::Io,
                         "short read from '" + path + "'");

    ParsedImage img;
    if (CheckpointError e = parseImage(bytes, img); !e.ok())
        return e;
    out.configHash = img.configHash;
    out.seed = img.seed;
    out.when = img.when;
    out.refs = img.refs;
    out.bytes = std::move(bytes);
    return {};
}

namespace
{

/** Shared scalar prefix of both config hashes. */
void
hashMachineShape(Sink &sink, PolicyKind policy, SwapKind swap,
                 double capacity_ratio, unsigned num_cpus,
                 std::uint64_t warmup_refs)
{
    sink.u32(kCheckpointVersion);
    sink.u32(static_cast<std::uint32_t>(policy));
    sink.u32(static_cast<std::uint32_t>(swap));
    sink.f64(capacity_ratio);
    sink.u32(num_cpus);
    sink.u64(warmup_refs);
}

} // namespace

std::uint64_t
configPrefixHash(const ExperimentConfig &config)
{
    Sink sink;
    sink.bytes("pagesim-ckpt-experiment", 23);
    hashMachineShape(sink, config.policy, config.swap,
                     config.capacityRatio, config.numCpus,
                     config.warmupRefs);
    sink.u32(static_cast<std::uint32_t>(config.workload));
    sink.u32(static_cast<std::uint32_t>(config.scale));
    sink.f64(config.slowTierRatio);
    sink.f64(config.memcgLowRatio);
    sink.f64(config.memcgHighRatio);
    sink.f64(config.memcgMaxRatio);
    return fnv1a(sink.data().data(), sink.size());
}

std::uint64_t
colocationPrefixHash(const ColocationConfig &config)
{
    Sink sink;
    sink.bytes("pagesim-ckpt-colocation", 23);
    hashMachineShape(sink, config.policy, config.swap,
                     config.capacityRatio, config.numCpus,
                     config.warmupRefs);
    sink.u32(static_cast<std::uint32_t>(config.tenants.size()));
    for (const TenantSpec &t : config.tenants) {
        sink.u32(static_cast<std::uint32_t>(t.name.size()));
        sink.bytes(t.name.data(), t.name.size());
        sink.u32(static_cast<std::uint32_t>(t.workload));
        sink.u32(static_cast<std::uint32_t>(t.scale));
        sink.boolean(t.policy.has_value());
        sink.u32(t.policy ? static_cast<std::uint32_t>(*t.policy) : 0);
        sink.f64(t.lowRatio);
        sink.f64(t.highRatio);
        sink.f64(t.maxRatio);
    }
    return fnv1a(sink.data().data(), sink.size());
}

std::string
checkpointDir()
{
    const char *dir = std::getenv("PAGESIM_CHECKPOINT_DIR");
    return dir != nullptr ? std::string(dir) : std::string();
}

namespace
{

std::string
checkpointFileName(const std::string &dir, std::uint64_t config_hash,
                   std::uint64_t seed, std::uint64_t refs)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(config_hash));
    return dir + "/ckpt-" + hex + "-" + std::to_string(seed) + "-" +
           std::to_string(refs) + ".bin";
}

} // namespace

CheckpointCache &
CheckpointCache::instance()
{
    static CheckpointCache cache;
    return cache;
}

std::shared_ptr<const Checkpoint>
CheckpointCache::find(std::uint64_t config_hash, std::uint64_t seed,
                      std::uint64_t refs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto key = std::make_tuple(config_hash, seed, refs);
    if (auto it = map_.find(key); it != map_.end()) {
        ++hits_;
        return it->second;
    }
    if (const std::string dir = checkpointDir(); !dir.empty()) {
        auto ckpt = std::make_shared<Checkpoint>();
        const std::string path =
            checkpointFileName(dir, config_hash, seed, refs);
        if (loadCheckpointFile(path, *ckpt).ok() &&
            ckpt->configHash == config_hash && ckpt->seed == seed &&
            ckpt->refs == refs) {
            map_[key] = ckpt;
            ++hits_;
            ++diskLoads_;
            return ckpt;
        }
    }
    ++misses_;
    return nullptr;
}

void
CheckpointCache::insert(std::shared_ptr<const Checkpoint> ckpt)
{
    assert(ckpt != nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto key =
        std::make_tuple(ckpt->configHash, ckpt->seed, ckpt->refs);
    map_[key] = ckpt;
    if (const std::string dir = checkpointDir(); !dir.empty()) {
        // Best-effort persistence: a read-only or missing directory
        // degrades to in-memory caching, it does not fail the trial.
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        saveCheckpointFile(checkpointFileName(dir, ckpt->configHash,
                                              ckpt->seed, ckpt->refs),
                           *ckpt);
    }
}

std::uint64_t
CheckpointCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
CheckpointCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::uint64_t
CheckpointCache::diskLoads() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return diskLoads_;
}

void
CheckpointCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    hits_ = 0;
    misses_ = 0;
    diskLoads_ = 0;
}

} // namespace pagesim
