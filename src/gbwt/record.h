/**
 * @file
 * GBWT node records.  Each oriented node owns one record holding
 *  (a) its outgoing edge list — successor handle plus the offset of this
 *      node's visits inside the successor's visit list (the FM-index LF
 *      mapping base), and
 *  (b) a run-length encoded body: for every haplotype visit, the rank of
 *      the outgoing edge that visit follows next.
 *
 * Records are stored varint-compressed in one flat byte arena (see
 * gbwt/gbwt.h) and decompressed on access; DecodedRecord is the in-memory
 * decoded form that CachedGBWT keeps warm (the paper's key software cache).
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/handle.h"
#include "gbwt/search_state.h"
#include "util/cursor.h"
#include "util/mem_tracer.h"
#include "util/small_vector.h"
#include "util/varint.h"

namespace mg::gbwt {

/** Sentinel edge rank meaning "no such edge". */
inline constexpr uint32_t kNoEdge = UINT32_MAX;

/** One outgoing edge of a record. */
struct RecordEdge
{
    /** Successor oriented node; invalid handle == path-end marker. */
    graph::Handle successor;
    /** Offset of this node's visits within the successor's visit list. */
    uint64_t offset = 0;
};

/** One run of the RLE body: `length` consecutive visits taking `edgeRank`. */
struct RecordRun
{
    uint32_t edgeRank = 0;
    uint32_t length = 0;
};

/**
 * Inline capacities of a decoded record, sized from the generated
 * pangenomes: every record of the A-human, B-yeast and D-HPRC benchmark
 * containers has at most 2 edges and at most 16 runs.  A larger record
 * spills that list to the heap.
 */
inline constexpr size_t kInlineEdges = 2;
inline constexpr size_t kInlineRuns = 16;

/**
 * Decoded (query-ready) form of a node record.  Edges and runs live in
 * inline storage, so a decode writes into the record itself (in the cache,
 * the cached entry) and a query reads one contiguous object.
 */
class DecodedRecord
{
  public:
    DecodedRecord() = default;
    DecodedRecord(std::span<const RecordEdge> edges,
                  std::span<const RecordRun> runs, uint64_t num_visits)
        : numVisits_(num_visits)
    {
        edges_.assign(edges.begin(), edges.end());
        runs_.assign(runs.begin(), runs.end());
    }

    bool empty() const { return numVisits_ == 0; }
    uint64_t numVisits() const { return numVisits_; }
    std::span<const RecordEdge> edges() const { return edges_; }
    std::span<const RecordRun> runs() const { return runs_; }

    /** Make this the empty record in place, keeping any spilled storage. */
    void
    clear()
    {
        numVisits_ = 0;
        edges_.clear();
        runs_.clear();
    }

    /** Rank of the edge to `successor`, or kNoEdge. */
    uint32_t edgeRank(graph::Handle successor) const;

    /**
     * Number of visits in body positions [0, pos) that follow edge `rank`
     * (the FM-index rank query; linear scan over the runs, which are few
     * for bubble-chain pangenomes).
     */
    uint64_t countBefore(uint64_t pos, uint32_t rank) const;

    /**
     * LF mapping: map a visit range at this node through the edge to
     * `successor`.  Returns an empty state if the edge does not exist or no
     * visit in the range follows it.
     */
    SearchState extend(const SearchState& state,
                       graph::Handle successor) const;

    /**
     * All non-empty successor states of `state`, excluding the path-end
     * marker — i.e. the haplotype-supported ways to keep walking.  This is
     * the query the extension kernel issues at every graph step.
     */
    std::vector<SearchState> successorStates(const SearchState& state) const;

    /**
     * successorStates() appended into a caller-owned buffer (not cleared).
     * The extension kernel reuses one buffer across all steps of a mapping
     * run, so the steady-state query allocates nothing.
     */
    void successorStatesInto(const SearchState& state,
                             std::vector<SearchState>& out) const;

    /** Approximate decoded footprint in bytes (for cache accounting). */
    size_t footprintBytes() const;

    /**
     * Report to the machine model the bytes a query reads from this
     * record: its visit count and the edges and runs in use, not the
     * unused inline capacity behind them.
     */
    void traceRead(util::MemTracer* tracer) const;

    /** Serialize into a compressed byte stream. */
    void encode(util::ByteWriter& writer) const;

    /** Inverse of encode().  Bounds- and consistency-checked: malformed
     *  records throw StatusError with the cursor's provenance. */
    static DecodedRecord decode(util::ByteCursor& cursor);

    /**
     * decode() into an existing record in place.  Inline storage holds
     * every record of the benchmark containers; a larger record reuses
     * the capacity an earlier spill left behind, so once the per-thread
     * cache is warm this path does not allocate.
     */
    static void decodeInto(util::ByteCursor& cursor, DecodedRecord& out);

  private:
    uint64_t numVisits_ = 0;
    // Sorted by successor handle.
    util::SmallVector<RecordEdge, kInlineEdges> edges_;
    util::SmallVector<RecordRun, kInlineRuns> runs_;
};

} // namespace mg::gbwt
