/**
 * @file
 * The Graph Burrows-Wheeler Transform: a haplotype index over a variation
 * graph (Section II-B of the paper).  Haplotype paths (both orientations)
 * are stored as an FM-index-style structure: one record per oriented node,
 * varint-compressed at rest in a single byte arena and decompressed on
 * access.  "Compressed at rest, decode on demand" is the property the
 * paper's CachedGBWT (gbwt/cached_gbwt.h) exploits and tunes.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "gbwt/record.h"
#include "gbwt/search_state.h"
#include "graph/handle.h"
#include "mem/arena.h"
#include "util/mem_tracer.h"
#include "util/prefetch.h"
#include "util/varint.h"

namespace mg::gbwt {

/**
 * Immutable compressed haplotype index.  Build with GbwtBuilder.
 *
 * The query API mirrors the subset of the real GBWT that Giraffe's
 * extension kernel uses: find() to open a state at a node, extend() to walk
 * one edge haplotype-consistently, and successorStates() to enumerate the
 * supported continuations.
 */
class Gbwt
{
  public:
    Gbwt() = default;

    /** Number of indexed oriented paths (2x the haplotype count). */
    uint64_t numPaths() const { return numPaths_; }

    /** Total haplotype visits over all records. */
    uint64_t totalVisits() const { return totalVisits_; }

    /** Size of the compressed record arena in bytes. */
    size_t compressedBytes() const { return arena_.size(); }

    /** True iff the oriented node has at least one haplotype visit. */
    bool hasRecord(graph::Handle node) const;

    /**
     * Decompress the record of an oriented node.  Returns an empty record
     * for unvisited nodes.  `tracer`, when given, observes the compressed
     * bytes read (this is the access pattern CachedGBWT exists to amortize).
     */
    DecodedRecord decodeRecord(graph::Handle node,
                               util::MemTracer* tracer = nullptr) const;

    /**
     * decodeRecord() into an existing record, reusing its vector capacity
     * (the CachedGBWT's warm-entry path; see DecodedRecord::decodeInto).
     */
    void decodeRecordInto(graph::Handle node, DecodedRecord& out,
                          util::MemTracer* tracer = nullptr) const;

    /**
     * Software-prefetch the compressed bytes of a node's record (the next
     * memory the probe/extend loop will decode on a cache miss).  Purely a
     * hint: no decoding, no tracing, safe for any handle.
     */
    void
    prefetchRecord(graph::Handle node) const
    {
        uint64_t slot = node.packed();
        if (slot + 1 >= recordOffsets_.size()) {
            return;
        }
        util::prefetchSpan(arena_.data() + recordOffsets_[slot],
                           recordOffsets_[slot + 1] - recordOffsets_[slot]);
    }

    /** State covering all haplotype visits to an oriented node. */
    SearchState find(graph::Handle node,
                     util::MemTracer* tracer = nullptr) const;

    /** One haplotype-consistent step (decodes state.node's record). */
    SearchState extend(const SearchState& state, graph::Handle to,
                       util::MemTracer* tracer = nullptr) const;

    /** Number of haplotypes through an oriented node. */
    uint64_t nodeCount(graph::Handle node,
                       util::MemTracer* tracer = nullptr) const;

    /**
     * locate(): the oriented-path identifiers of the visits a state
     * covers, ascending and deduplicated.  Oriented path 2h is haplotype
     * h forward, 2h+1 is its reverse complement (builder insertion
     * order).  Backed by a per-node document array kept in a separate
     * arena so the mapping hot path never touches it.
     */
    std::vector<uint32_t> locate(const SearchState& state) const;

    /**
     * Haplotypes (oriented-path ids) containing `walk` as a contiguous
     * subpath: find() on the first handle, extend() along the rest,
     * locate() the surviving range.  Empty if the walk is unsupported.
     */
    std::vector<uint32_t>
    pathsThrough(const std::vector<graph::Handle>& walk) const;

    /**
     * Raw spans of the four arenas (container serialization).  Offsets
     * are 32-bit, so each arena holds at most UINT32_MAX bytes; the
     * builder rejects a larger one.
     */
    struct ArenaRefs
    {
        const uint8_t* arena;
        size_t arenaSize;
        const uint32_t* recordOffsets;
        size_t numRecordOffsets;
        const uint8_t* docArena;
        size_t docArenaSize;
        const uint32_t* docOffsets;
        size_t numDocOffsets;
    };
    ArenaRefs arenaRefs() const;

    /** True when the arenas are mmap-backed (container load). */
    bool isMapped() const { return arena_.isMapped(); }

    /** Heap/mapped bytes held across all four arenas. */
    size_t
    footprintBytes() const
    {
        return arena_.bytes() + recordOffsets_.bytes() + docArena_.bytes() +
               docOffsets_.bytes();
    }

    /**
     * Rebind onto arenas inside a mapped container.  Checks the mapped
     * tables' structure (offset monotonicity, arena-size consistency);
     * throws StatusError-free util::Error on inconsistency.
     */
    void bindMapped(std::shared_ptr<mem::MappedFile> file,
                    const ArenaRefs& refs, uint64_t num_paths,
                    uint64_t total_visits);

  private:
    friend class GbwtBuilder;

    /** Byte range of one record inside the arena. */
    std::pair<const uint8_t*, size_t> recordSpan(graph::Handle node) const;

    mem::ArenaView<uint8_t> arena_;   // concatenated compressed records
    mem::ArenaView<uint32_t> recordOffsets_;  // slot -> offset (n+1 ents)
    // Document array: per-visit oriented-path ids, varint-coded per slot,
    // in a separate arena so locate() support costs the hot path nothing.
    mem::ArenaView<uint8_t> docArena_;
    mem::ArenaView<uint32_t> docOffsets_;
    uint64_t numPaths_ = 0;
    uint64_t totalVisits_ = 0;
};

/**
 * Constructs a Gbwt from haplotype paths.  For every added forward path the
 * builder also indexes its reverse complement, so haplotype-consistent
 * search works in both walk directions (the extension kernel extends seeds
 * leftward by walking flipped handles).
 *
 * Construction requires the forward graph to be a DAG (true for the bubble
 * chain pangenomes produced by mg::sim): visit lists are finalized in
 * topological order, giving the standard GBWT visit ordering — path starts
 * first, then visits grouped by predecessor in handle order.
 */
class GbwtBuilder
{
  public:
    /** Register one haplotype walk (forward handles). */
    void addPath(const std::vector<graph::Handle>& steps);

    /** Build the compressed index serially; the builder is consumed. */
    Gbwt build() &&;

    /**
     * Parallel build: paths are scanned in fixed-size batches and records
     * encoded in fixed slot shards over the work-stealing scheduler, with
     * all merge points anchored at batch/shard boundaries — the output is
     * byte-identical for every thread count (0 = hardware concurrency).
     */
    Gbwt build(unsigned threads) &&;

  private:
    std::vector<std::vector<graph::Handle>> paths_;
};

} // namespace mg::gbwt
