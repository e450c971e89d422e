/**
 * @file
 * Versioned, checksummed binary snapshots of a mid-trial simulator.
 *
 * A checkpoint captures every layer of a quiescent simulated machine —
 * page-table lanes, frame records, memcg counters and each memcg's
 * lruvec (policy) state, the swap ledger and device (including ZRAM's
 * compressed-pool contents), workload cursors, actor scalar state,
 * barrier membership, and the (when, seq) of every pending actor
 * event — such that restoring it into a freshly
 * constructed rig and running to completion reproduces the
 * straight-through TrialResult bit for bit (pinned by
 * tests/harness/checkpoint_test.cpp).
 *
 * Quiescence: the event queue holds closures, which cannot be
 * serialized. A checkpoint is therefore only taken at a point where
 * every pending event belongs to an actor (a Runnable step dispatch or
 * a Sleeping wake) — no I/O completions, retry timers, or sampler
 * events in flight (MemoryManager::quiescentForCheckpoint()). The
 * restore side rebuilds the machine with the same construction order
 * (replaying every RNG fork), skips actor starts so the queue stays
 * empty, moves the clock with EventQueue::restoreClock, restores all
 * component state wholesale, and re-schedules each actor's pending
 * event in ascending saved (when, seq) order, which preserves the
 * dispatch relation under fresh sequence numbers.
 *
 * Format (version 6): a little-endian header (magic, version,
 * config-prefix hash, seed, sim time, refs, section count) followed by
 * named sections, each framed as name length, name, payload length,
 * payload checksum (checksum64, sim/serialize.hh), payload. The
 * sections are exactly the section table's, in its order; a missing
 * one is SectionMissing, and a duplicated, unknown or reordered one is
 * Unsupported. The framing is that of version 1; version 2 brought
 * checksum64, version 3 the XOR-delta lane packing (sim/serialize.hh),
 * version 4 the one config-prefix hash (encodeConfig), version 5 that
 * hash over two fewer config fields, and version 6 a page table
 * without its region, shard and total counters. An older image is
 * refused with VersionMismatch. A little-endian host is assumed: lane
 * words are read in host order.
 *
 * Every section is described once, by the visitState(StateIO &)
 * bodies of the classes it holds (sim/serialize.hh); capture, the
 * pre-apply check, the apply and the size bound all walk one section
 * table. Capture is single-copy: every section, and every
 * length-prefixed space/workload/actor record inside one, is
 * serialized straight into the one image buffer (reserved up front at
 * the Size-mode bound, whose untouched tail never becomes resident);
 * its length and checksum slots are backfilled over the payload span,
 * and the finished buffer is moved, not copied, into
 * Checkpoint::bytes.
 *
 * Loading is two-pass: ALL section checksums, then a StateIO Check
 * pass over every section (lane and record counts, lane framing,
 * replayed layouts, the memcg count, frame-owner and barrier-waiter
 * ids, enum ranges) run before ANY state is applied, so truncation,
 * version skew, flipped bytes, a malformed lane, a machine of another
 * size and out-of-range indices are rejected with a structured error
 * and zero partial state. (If
 * apply itself fails — only possible on a format bug — the caller
 * must discard the half-restored rig; runRig's buildAtBoundary
 * rebuilds from scratch.)
 */

#ifndef PAGESIM_HARNESS_CHECKPOINT_HH
#define PAGESIM_HARNESS_CHECKPOINT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "harness/colocation.hh"
#include "sim/types.hh"

namespace pagesim
{

class Simulation;
class MemoryManager;
class FrameTable;
class SwapManager;
class AddressSpace;
class Workload;
class SimActor;

/** Checkpoint format version; bump on any serialized-layout change. */
constexpr std::uint32_t kCheckpointVersion = 6;

/** Structured checkpoint failure. */
struct CheckpointError
{
    enum class Kind
    {
        None,
        Io,                  ///< file unreadable/unwritable
        Truncated,           ///< image shorter than its declared layout
        BadMagic,            ///< not a checkpoint image
        VersionMismatch,     ///< produced by a different format version
        ConfigMismatch,      ///< config hash, seed or machine shape
                             ///< (spaces, frames, actors) disagrees
        FingerprintMismatch, ///< a section's payload does not match its
                             ///< recorded checksum64
        SectionMissing,      ///< a required section is absent
        Unsupported,         ///< image valid but a section does not
                             ///< decode (an index out of range, ...)
        NotQuiescent,        ///< capture attempted off a quiescent point
    };

    Kind kind = Kind::None;
    std::string message;

    bool ok() const { return kind == Kind::None; }
};

/** Display name of an error kind ("fingerprint-mismatch", ...). */
const char *checkpointErrorKindName(CheckpointError::Kind kind);

/**
 * One encoded snapshot. @c bytes is the complete self-describing image
 * (header + sections); the scalar fields mirror the header for keying
 * without a re-parse.
 */
struct Checkpoint
{
    std::uint64_t configHash = 0; ///< configPrefixHash of the producer
    std::uint64_t seed = 0;       ///< trial seed
    SimTime when = 0;             ///< sim clock at capture
    std::uint64_t refs = 0;       ///< total workload touches at capture
    ByteBuffer bytes;
};

/**
 * The serializable surface of a built rig (ColocationRig::view), in a
 * fixed order: spaces/workloads in tenant order, actors as [kswapd,
 * noise, threads tenant-major]. The checkpoint machinery maps raw
 * pointers (frame owners, barrier waiters) to indices in these vectors
 * (StateLinks); both sides must present the same construction, which
 * they do because the restore side replays the identical build.
 */
struct RigView
{
    Simulation *sim = nullptr;
    MemoryManager *mm = nullptr;
    FrameTable *frames = nullptr;
    SwapManager *swap = nullptr;
    std::vector<AddressSpace *> spaces;
    std::vector<Workload *> workloads;
    std::vector<SimActor *> actors;
};

/**
 * Capture a checkpoint of @p rig, which must sit at a quiescent point
 * (else Kind::NotQuiescent). @p config_hash and @p seed identify the
 * producing configuration; @p refs records the workload progress used
 * as the cache key's boundary coordinate.
 */
CheckpointError captureCheckpoint(const RigView &rig,
                                  std::uint64_t config_hash,
                                  std::uint64_t seed, std::uint64_t refs,
                                  Checkpoint &out);

/**
 * Validate @p ckpt and apply it to @p rig, a freshly built rig
 * (TrialRigOptions::forRestore) of the SAME configuration and seed.
 * All validation (magic, version, config hash, seed, every section
 * checksum, a Check-mode decode of every section) happens before any
 * state is touched; on a validation error the rig is untouched. On an
 * apply error (format bug) the rig must be discarded.
 */
CheckpointError restoreCheckpoint(const RigView &rig,
                                  std::uint64_t config_hash,
                                  std::uint64_t seed,
                                  const Checkpoint &ckpt);

/** Write @p ckpt's image to @p path (atomically via temp + rename). */
CheckpointError saveCheckpointFile(const std::string &path,
                                   const Checkpoint &ckpt);

/**
 * Read and fully validate a checkpoint image from @p path (header AND
 * every section checksum, so later restore cannot trip over
 * corruption mid-apply).
 */
CheckpointError loadCheckpointFile(const std::string &path,
                                   Checkpoint &out);

/**
 * Config-prefix hash: FNV-1a over encodeConfig(@p config). The seed
 * and the boundary are keyed beside it.
 */
std::uint64_t colocationPrefixHash(const ColocationConfig &config);

/** colocationPrefixHash(TrialRig::scenario(@p config)). */
std::uint64_t configPrefixHash(const ExperimentConfig &config);

/**
 * Process-global cache of checkpoints keyed by (config-prefix hash,
 * seed, refs). runRig consults it when checkpointAt is set, so sweep
 * cells (and repeated sweeps) sharing a warmup prefix restore instead
 * of re-simulating. With PAGESIM_CHECKPOINT_DIR set (read once, by
 * launch_env.hh), find() falls back to
 * "<dir>/ckpt-<hash>-<seed>-<refs>.bin" on an in-memory miss and
 * insert() persists there, so the warmup survives across processes.
 * Thread-safe (sweep workers share it).
 */
class CheckpointCache
{
  public:
    static CheckpointCache &instance();

    /** Cached checkpoint for the key, or nullptr (counts a miss). */
    std::shared_ptr<const Checkpoint>
    find(std::uint64_t config_hash, std::uint64_t seed,
         std::uint64_t refs);

    /** Insert (and persist when PAGESIM_CHECKPOINT_DIR is set). */
    void insert(std::shared_ptr<const Checkpoint> ckpt);

    /** find() calls answered (memory or disk). */
    std::uint64_t hits() const;
    /** find() calls that found nothing. */
    std::uint64_t misses() const;
    /** Hits that came from a PAGESIM_CHECKPOINT_DIR file. */
    std::uint64_t diskLoads() const;

    /** Drop all cached checkpoints and zero the counters. */
    void clear();

  private:
    CheckpointCache() = default;

    mutable std::mutex mutex_;
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>,
             std::shared_ptr<const Checkpoint>>
        map_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t diskLoads_ = 0;
};

} // namespace pagesim

#endif // PAGESIM_HARNESS_CHECKPOINT_HH
