/**
 * @file
 * Crash-consistent mapping checkpoints.  A long mapping run periodically
 * flushes completed *shards* — the GAF lines of a contiguous read range
 * plus the stats deltas that range contributed — so a killed run (power
 * loss, OOM kill, SIGKILL at any instant) resumes from its last durable
 * shard and still produces a byte-identical final GAF.
 *
 * On-disk layout (one checkpoint directory per run):
 *
 *     shard-<begin>-<end>.mgs   "MGS1" magic + varint payload + CRC32
 *     manifest.mgc              "MGC1" magic + varint payload + CRC32
 *
 * Durability protocol: a shard file is written via writeFileBytesDurable
 * (temp + fsync + atomic rename) *before* the manifest referencing it is
 * rewritten the same way.  The manifest is therefore the single source of
 * truth: a crash at any point leaves either the old manifest (the new
 * shard is an ignored orphan) or the new one (the shard it references is
 * already durable).  No ordering is trusted blindly — the manifest stores
 * each shard's payload CRC, and the loader re-verifies every shard file
 * against both its own trailing CRC and the manifest's copy, dropping
 * (re-mapping) any shard that fails.  Decoding never crashes on corrupt
 * input: every structural violation surfaces as util::Status provenance
 * (the fuzz harness drives this decoder with truncations and bit flips).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace mg::io {

/** Stats a shard's read range contributed (restored on resume so run
 *  totals match an uninterrupted run; the latency histogram is not
 *  persisted — resumed summaries cover newly mapped reads only). */
struct ShardStatsDelta
{
    /** Degraded reads by reason (map::Tally Degraded* counts). */
    uint64_t deadlineHits = 0;
    uint64_t stepCapHits = 0;
    uint64_t lookupCapHits = 0;
    uint64_t watchdogCancels = 0;
    /** CachedGBWT counters. */
    uint64_t cacheLookups = 0;
    uint64_t cacheHits = 0;
    uint64_t cacheDecodes = 0;
    uint64_t cacheRehashes = 0;
    uint64_t cacheProbes = 0;
};

/** One durable unit: the GAF lines of reads [begin, end). */
struct Shard
{
    uint64_t begin = 0;
    uint64_t end = 0;
    /** Concatenated GAF lines, one per read in range, each '\n'-ended. */
    std::string gaf;
    ShardStatsDelta stats;
};

/** Manifest entry referencing one durable shard file. */
struct ManifestEntry
{
    uint64_t begin = 0;
    uint64_t end = 0;
    /** CRC32 of the shard file's payload (cross-check on load). */
    uint32_t payloadCrc = 0;
    /** File name within the checkpoint directory. */
    std::string file;
};

/** The checkpoint's source of truth. */
struct Manifest
{
    /** Total reads of the run the checkpoint belongs to. */
    uint64_t totalReads = 0;
    /** Durable shards, sorted by begin, non-overlapping. */
    std::vector<ManifestEntry> shards;
};

/** Conventional file names. */
std::string shardFileName(uint64_t begin, uint64_t end);
constexpr const char* kManifestFileName = "manifest.mgc";

// --- Encoding (infallible) ---------------------------------------------

std::vector<uint8_t> encodeShard(const Shard& shard);
std::vector<uint8_t> encodeManifest(const Manifest& manifest);

// --- Decoding (total: corrupt input -> Status, never a crash) ----------

/** Decode + CRC-verify one shard file's bytes. */
util::Status decodeShard(const std::vector<uint8_t>& bytes,
                         const std::string& file, Shard& out);

/**
 * Decode + CRC-verify a manifest and validate its structure: every shard
 * range must satisfy begin < end <= totalReads, entries must be sorted by
 * begin and non-overlapping, and file names must be non-empty.
 */
util::Status decodeManifest(const std::vector<uint8_t>& bytes,
                            const std::string& file, Manifest& out);

// --- The writer --------------------------------------------------------

/**
 * Appends durable shards to a checkpoint directory.  Single-threaded by
 * design: the mapping scheduler completes shards in any order, but the
 * driver flushes them from one thread (flushing is I/O-bound and rare).
 */
class CheckpointWriter
{
  public:
    /** Durability-cost telemetry: what flushing has spent so far. */
    struct FlushStats
    {
        uint64_t flushes = 0; // append() calls completed
        uint64_t bytes = 0;   // shard + manifest bytes written durably
        uint64_t nanos = 0;   // wall time inside append()
    };

    /** Creates the directory if needed.  `total_reads` pins the run. */
    CheckpointWriter(std::string dir, uint64_t total_reads);

    /**
     * Adopt the surviving manifest of a previous run (resume): new shards
     * are appended alongside the adopted ones.
     */
    void adopt(Manifest manifest);

    /** Durably persist one completed shard, then the updated manifest. */
    void append(Shard shard);

    const Manifest& manifest() const { return manifest_; }
    const std::string& dir() const { return dir_; }
    const FlushStats& flushStats() const { return flushStats_; }

  private:
    std::string dir_;
    Manifest manifest_;
    FlushStats flushStats_;
};

// --- The loader --------------------------------------------------------

/** Everything a previous run left behind that verifies. */
struct CheckpointState
{
    /** The manifest pruned to the entries whose shard files verified, so
     *  adopting it and flushing replacement shards for the dropped ranges
     *  can never produce overlapping entries. */
    Manifest manifest;
    /** Shards that decoded and CRC-verified, in manifest order. */
    std::vector<Shard> shards;
    /** Manifest entries whose shard file failed (dropped; re-mapped). */
    uint64_t droppedShards = 0;
};

/**
 * Load a checkpoint directory.  No manifest file -> empty state, Ok (a
 * fresh run).  A corrupt manifest is fatal (non-Ok Status): it is the
 * source of truth and was written atomically, so damage means real
 * corruption the caller must see.  A corrupt *shard* is not fatal: the
 * entry is dropped and its reads are simply mapped again.
 */
util::Status loadCheckpoint(const std::string& dir, CheckpointState& out);

} // namespace mg::io
