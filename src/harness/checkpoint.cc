#include "harness/checkpoint.hh"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

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
 * Header bytes: magic, version, config hash, seed, sim time, refs,
 * section count.
 */
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8 + 8 + 4;

/**
 * Capacity reserved past an image's exact size. A Big1M image sits
 * just above glibc's 32 MiB mmap ceiling; reserved at exactly its
 * size it was often carved out of the free space a destroyed rig left
 * in a thread arena, and stayed there after the cache dropped it
 * (pagesim_bench ckpt-big1m peak RSS rose 10-20% on a 4-core x86-64
 * host with glibc malloc). One spare MiB keeps it in a mapping of its
 * own.
 */
constexpr std::size_t kImageSlackBytes = std::size_t{1} << 20;

/**
 * The spaces, workloads and actors sections: a record count, then one
 * length-prefixed record per object in rig order.
 */
template <typename T>
void
visitRecords(StateIO &io, const std::vector<T *> &items)
{
    io.expect(static_cast<std::uint32_t>(items.size()));
    for (T *item : items)
        io.record([item](StateIO &rec) { item->visitState(rec); });
}

/** One named image section and the state it carries. */
struct Section
{
    const char *name;
    void (*visit)(StateIO &io, const RigView &rig);
};

/**
 * Every section, in image order. Capture, the pre-apply check, the
 * apply and the size estimate all walk this one table.
 */
const Section kSections[] = {
    {"sim",
     [](StateIO &io, const RigView &rig) { rig.sim->visitState(io); }},
    {"spaces",
     [](StateIO &io, const RigView &rig) { visitRecords(io, rig.spaces); }},
    {"frames",
     [](StateIO &io, const RigView &rig) { rig.frames->visitState(io); }},
    {"mm",
     [](StateIO &io, const RigView &rig) { rig.mm->visitState(io); }},
    {"swap",
     [](StateIO &io, const RigView &rig) { rig.swap->visitState(io); }},
    {"workloads",
     [](StateIO &io, const RigView &rig) { visitRecords(io, rig.workloads); }},
    {"actors",
     [](StateIO &io, const RigView &rig) { visitRecords(io, rig.actors); }},
    {"barriers",
     [](StateIO &io, const RigView &rig) {
         for (Workload *wl : rig.workloads) {
             std::vector<SimBarrier *> barriers;
             wl->forEachBarrier(
                 [&barriers](SimBarrier &b) { barriers.push_back(&b); });
             io.expect(static_cast<std::uint32_t>(barriers.size()));
             for (SimBarrier *b : barriers)
                 b->visitState(io);
         }
     }},
};

/** The rig's pointer <-> id tables. */
StateLinks
linksOf(const RigView &rig)
{
    return StateLinks{rig.spaces, &rig.mm->balloonSpace(), rig.actors};
}

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
    Source cur(bytes.data(), bytes.size());

    const std::uint64_t magic = cur.u64();
    if (!cur.ok())
        return makeError(CheckpointError::Kind::Truncated,
                         "image shorter than the checkpoint header");
    if (magic != kCheckpointMagic)
        return makeError(CheckpointError::Kind::BadMagic,
                         "not a checkpoint image (bad magic)");

    out.version = cur.u32();
    if (cur.ok() && out.version != kCheckpointVersion)
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
    if (!cur.ok())
        return makeError(CheckpointError::Kind::Truncated,
                         "image shorter than the checkpoint header");

    out.sections.clear();
    for (std::uint32_t i = 0; i < nsections; ++i) {
        ParsedSection sec;
        const std::uint32_t name_len = cur.u32();
        const std::uint8_t *name = cur.view(name_len);
        sec.len = cur.u64();
        const std::uint64_t sum = cur.u64();
        sec.data = cur.view(static_cast<std::size_t>(sec.len));
        if (!cur.ok())
            return makeError(CheckpointError::Kind::Truncated,
                             "image truncated inside section " +
                                 std::to_string(i));
        sec.name.assign(reinterpret_cast<const char *>(name), name_len);
        if (checksum64(sec.data, static_cast<std::size_t>(sec.len)) != sum)
            return makeError(
                CheckpointError::Kind::FingerprintMismatch,
                "section '" + sec.name + "' checksum mismatch");
        out.sections.push_back(std::move(sec));
    }
    if (cur.remaining() != 0)
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

    // Size the image exactly first (Size mode reads lane lengths, not
    // lane contents), so the buffer is allocated and first touched
    // once, never re-copied by a geometric grow.
    std::size_t image_bytes = kHeaderBytes;
    for (const Section &sec : kSections) {
        StateIO sizer;
        sec.visit(sizer, rig);
        image_bytes += 4 + std::strlen(sec.name) + 16 + sizer.size();
    }
    Sink image;
    image.reserve(image_bytes + kImageSlackBytes);
    image.u64(kCheckpointMagic);
    image.u32(kCheckpointVersion);
    image.u64(config_hash);
    image.u64(seed);
    image.u64(rig.sim->now());
    image.u64(refs);
    image.u32(static_cast<std::uint32_t>(std::size(kSections)));

    const StateLinks links = linksOf(rig);
    for (const Section &sec : kSections) {
        writeSection(image, sec.name, [&] {
            StateIO io(image, &links);
            sec.visit(io, rig);
        });
    }
    assert(image.size() == image_bytes && "Size mode disagrees with Save");

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
    for (const Section &sec : kSections)
        if (img.section(sec.name) == nullptr)
            return makeError(CheckpointError::Kind::SectionMissing,
                             std::string("section '") + sec.name +
                                 "' missing");

    // Check pass: decode every section against the live rig without
    // storing anything. Record and lane counts, replayed layouts, the
    // memcg count, link ids and enum ranges are all refused here.
    const StateLinks links = linksOf(rig);
    const auto visitSection = [&](const Section &sec, StateIO::Mode mode) {
        const ParsedSection &p = *img.section(sec.name);
        Source src(p.data, static_cast<std::size_t>(p.len));
        StateIO io(src, &links, mode);
        sec.visit(io, rig);
        if (io.mismatched())
            return makeError(CheckpointError::Kind::ConfigMismatch,
                             std::string("checkpoint section '") +
                                 sec.name +
                                 "' does not match this rig's machine "
                                 "shape or layout");
        if (!io.exhausted())
            return makeError(CheckpointError::Kind::Unsupported,
                             std::string("section '") + sec.name +
                                 "' failed to decode");
        return CheckpointError{};
    };
    for (const Section &sec : kSections)
        if (CheckpointError e = visitSection(sec, StateIO::Mode::Check);
            !e.ok())
            return e;

    // ---- Apply. A failure past this point means a format bug; the
    // caller must discard the half-restored rig. ----------------------
    rig.sim->events().restoreClock(img.when);
    for (const Section &sec : kSections)
        if (CheckpointError e = visitSection(sec, StateIO::Mode::Load);
            !e.ok())
            return e;

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
