/**
 * @file
 * Checkpointed mapping: the parent emulator driven shard by shard with
 * crash-consistent flushes, so a run killed at any instant (kill -9, power
 * loss — the crash-matrix tests inject fault::Kind::Crash at every durable
 * step) resumes from its last durable shard and still produces a final GAF
 * byte-identical to an uninterrupted run.
 *
 * Determinism argument: a read's GAF line is a pure function of the read
 * (and the immutable indexes) — mapping is per-read deterministic and
 * postProcess breaks ties canonically — so lines computed before a crash
 * and lines computed after resume are the same bytes, and stitching
 * durable shards with freshly mapped ranges in read order reproduces the
 * uninterrupted output exactly.  This holds for the deterministic budget
 * caps (steps/lookups) too; a *wall-clock* deadline is inherently
 * run-dependent and a checkpointed run does not make it reproducible.
 *
 * Restricted to unpaired read sets: pairing and rescue need every mate
 * mapped before they run, which contradicts shard-at-a-time durability.
 */
#pragma once

#include <string>

#include "giraffe/parent.h"
#include "io/checkpoint.h"

namespace mg::giraffe {

/** Checkpointing knobs. */
struct CheckpointRunParams
{
    /** Checkpoint directory (created if absent; resumed if populated). */
    std::string dir;
    /** Reads per shard — the flush granularity.  Smaller shards lose less
     *  work to a crash and cost more fsyncs. */
    uint64_t shardReads = 2048;
    /** Optional telemetry hub, forwarded to every per-chunk parent run;
     *  flush stats of the checkpoint writer fold in at the end. */
    obs::Hub* hub = nullptr;
    /**
     * Graceful-stop flag (SIGTERM/SIGINT).  Checked between shard
     * flushes: the in-progress shard finishes and lands durably, then
     * the run returns with `stopped = true` and a *partial* GAF (the
     * contiguous prefix).  Do NOT also set ParentParams::stopFlag for a
     * checkpointed run — a mid-chunk stop would flush a shard that
     * claims coverage it does not have; the shard is the stop unit.
     */
    const std::atomic<bool>* stopFlag = nullptr;
};

/** Outcome of a checkpointed (possibly resumed) run. */
struct CheckpointRunResult
{
    /** The final stitched GAF text (every read, in input order). */
    std::string gaf;
    /** Failure accounting over the newly mapped ranges, with batch and
     *  item indices rebased to the full read set. */
    sched::FailureReport failures;
    /** Run totals: the whole tally of the reads mapped by *this*
     *  process, plus what a restored shard's delta persists (degraded
     *  reads and the cache counts but recycles).  So recycles, the
     *  funnel counts and the latency histogram cover only this
     *  process's reads. */
    map::Tally tally;
    /** Reads restored from durable shards (0 on a fresh run). */
    uint64_t resumedReads = 0;
    /** Reads mapped by this process. */
    uint64_t mappedReads = 0;
    /** Shards the loader dropped (CRC/structure failure) and re-mapped. */
    uint64_t droppedShards = 0;
    double wallSeconds = 0.0;
    /** A graceful stop ended the run early; `gaf` holds only the
     *  contiguous prefix and the checkpoint directory holds the rest of
     *  the durable state for a later resume. */
    bool stopped = false;
};

/**
 * Map `reads` with periodic durable checkpoints in `params.dir`, resuming
 * from whatever durable state the directory already holds.  Throws
 * util::StatusError if the manifest exists but is corrupt (the source of
 * truth is damaged), util::Error on a read-set/manifest size mismatch.
 */
CheckpointRunResult runCheckpointed(const ParentEmulator& parent,
                                    const map::ReadSet& reads,
                                    const CheckpointRunParams& params);

} // namespace mg::giraffe
