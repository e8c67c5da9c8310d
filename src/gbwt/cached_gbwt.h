/**
 * @file
 * CachedGBWT: the decode cache over the compressed GBWT (Section II-B).
 * Visited node records are kept decompressed in an open-addressing hash
 * table so repeated accesses to the same pangenome region skip the varint
 * decode.  The table's *initial capacity* is the paper's headline tuning
 * parameter (Figures 6-8, Table VIII): too small and the table pays
 * repeated expensive rehash growth; too large and probes lose cache
 * locality while the footprint crowds out the L1/L2.
 *
 * Hot-path memory overhaul: the cache is epoch-stamped.  Each slot carries
 * the epoch it was written in, and clear() just bumps the generation
 * counter — O(1) — leaving the slot array and the decoded-record storage
 * in place.  A fresh-per-read cache therefore costs no allocation and no
 * table wipe, while stale-generation slots still read as empty, preserving
 * the paper's "fresh cache per mapping task" semantics exactly.  Decoded
 * records keep their edges and runs inline and are recycled via
 * DecodedRecord::decodeInto, so a warm cache's miss path decodes straight
 * into a retained entry without allocating.
 *
 * Each worker thread owns one CachedGbwt (as in Giraffe), so no locking is
 * needed on the hot path.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gbwt/gbwt.h"

namespace mg::gbwt {

/** Observability counters for tuning studies and tests. */
struct CacheStats
{
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t decodes = 0;
    uint64_t rehashes = 0;
    uint64_t probes = 0;
    // Misses served by reusing a prior epoch's decoded-record storage
    // instead of allocating a fresh entry (the epoch-clear payoff; not
    // persisted in checkpoint shard deltas).
    uint64_t recycles = 0;

    double
    hitRate() const
    {
        return lookups == 0 ? 0.0
                            : static_cast<double>(hits) /
                                  static_cast<double>(lookups);
    }

    /** Accumulate another interval's counters (per-thread roll-ups). */
    void
    accumulate(const CacheStats& other)
    {
        lookups += other.lookups;
        hits += other.hits;
        decodes += other.decodes;
        rehashes += other.rehashes;
        probes += other.probes;
        recycles += other.recycles;
    }
};

/**
 * Per-thread decompression cache over an immutable Gbwt.
 *
 * An initial capacity of 0 disables caching entirely (every access decodes
 * from the compressed arena), which is the "no caching structure" baseline
 * of the paper's Figure 6.
 */
class CachedGbwt
{
  public:
    /** Giraffe's default initial capacity (the paper's default of 256). */
    static constexpr size_t kDefaultInitialCapacity = 256;

    /**
     * @param gbwt Backing compressed index (must outlive the cache).
     * @param initial_capacity Initial hash-table slot count (rounded up to
     *        a power of two); 0 disables caching.
     * @param tracer Optional memory-access tracer for the machine model.
     */
    explicit CachedGbwt(const Gbwt& gbwt,
                        size_t initial_capacity = kDefaultInitialCapacity,
                        util::MemTracer* tracer = nullptr);

    /** Record of an oriented node, decoding and caching on first touch. */
    const DecodedRecord& record(graph::Handle node);

    /** State covering all haplotype visits to a node. */
    SearchState find(graph::Handle node);

    /** One haplotype-consistent step. */
    SearchState extend(const SearchState& state, graph::Handle to);

    /** Haplotype-supported continuations of a state. */
    std::vector<SearchState> successorStates(const SearchState& state);

    /**
     * successorStates() appended into a caller-owned buffer — the
     * extension kernel's allocation-free query path.
     */
    void successorStatesInto(const SearchState& state,
                             std::vector<SearchState>& out);

    /** Number of haplotypes through a node. */
    uint64_t nodeCount(graph::Handle node);

    /**
     * Software-prefetch the probed slot for `node` and, if the slot does
     * not currently hold it, the node's compressed record bytes — the two
     * memory targets the next record() for this node will touch.  A hint
     * only: no decode, no stats, no tracing.
     */
    void prefetch(graph::Handle node) const;

    const Gbwt& backing() const { return gbwt_; }
    /** The attached memory tracer (null when not tracing). */
    util::MemTracer* tracer() const { return tracer_; }
    const CacheStats& stats() const { return stats_; }
    /** Entries cached in the current epoch. */
    size_t size() const { return entriesUsed_; }
    size_t capacity() const { return slots_.size(); }
    bool cachingEnabled() const { return cachingEnabled_; }
    /** Generation counter; bumped by every clear() (tests/diagnostics). */
    uint64_t epoch() const { return epoch_; }

    /** Approximate resident bytes (table plus decoded-record storage). */
    size_t footprintBytes() const;

    /**
     * Start a new generation: O(1).  All cached entries become stale (the
     * next lookup of any node decodes again, as a freshly constructed
     * cache would), statistics reset, and a table grown past the initial
     * capacity snaps back to it — but the slot array and decoded-record
     * storage are retained, so no memory is freed or zeroed.
     */
    void clear();

  private:
    struct Slot
    {
        uint64_t key = 0;     // handle.packed() + 1; 0 == never written
        uint32_t value = 0;   // entry index (see entry())
        uint32_t epoch = 0;   // generation the slot was written in
    };

    bool
    live(const Slot& slot) const
    {
        return slot.key != 0 && slot.epoch == epoch_;
    }

    /** Find the slot holding key, or the reusable slot where it belongs. */
    size_t probe(uint64_t key);

    /** Double the table and reinsert the live epoch (expensive growth). */
    void rehash();

    /** Entries are allocated in blocks of 2^kBlockShift that never move. */
    static constexpr size_t kBlockShift = 5;
    static constexpr size_t kBlockMask = (size_t{1} << kBlockShift) - 1;

    DecodedRecord&
    entry(size_t index)
    {
        return blocks_[index >> kBlockShift][index & kBlockMask];
    }

    const Gbwt& gbwt_;
    util::MemTracer* tracer_;
    bool cachingEnabled_;
    size_t initialSlots_ = 0; // power-of-two slot count clear() restores
    uint32_t epoch_ = 1;      // 0 marks never-written slots
    std::vector<Slot> slots_;
    std::vector<Slot> spare_; // the table before the last rehash()
    // Fixed-size blocks keep record addresses stable across insertions and
    // rehashes, so record() references stay valid while the cache grows.
    // Entries outlive clear(): [0, entriesUsed_) belong to the current
    // epoch, [entriesUsed_, entriesMade_) are earlier epochs' entries that
    // the next misses recycle, and the rest of the last block is unused.
    std::vector<std::unique_ptr<DecodedRecord[]>> blocks_;
    size_t entriesUsed_ = 0;
    size_t entriesMade_ = 0;
    DecodedRecord uncached_; // scratch when caching is disabled
    CacheStats stats_;
};

} // namespace mg::gbwt
