#include "gbwt/record.h"

#include <algorithm>

#include "fault/fault.h"
#include "util/common.h"

namespace mg::gbwt {

uint32_t
DecodedRecord::edgeRank(graph::Handle successor) const
{
    // Edge lists are tiny (bubble graphs have out-degree ~2); linear scan
    // beats binary search at this size and touches memory predictably.
    for (size_t i = 0; i < edges_.size(); ++i) {
        if (edges_[i].successor == successor) {
            return static_cast<uint32_t>(i);
        }
    }
    return kNoEdge;
}

uint64_t
DecodedRecord::countBefore(uint64_t pos, uint32_t rank) const
{
    uint64_t count = 0;
    uint64_t covered = 0;
    for (const RecordRun& run : runs_) {
        if (covered >= pos) {
            break;
        }
        uint64_t take = std::min<uint64_t>(run.length, pos - covered);
        if (run.edgeRank == rank) {
            count += take;
        }
        covered += run.length;
    }
    return count;
}

SearchState
DecodedRecord::extend(const SearchState& state, graph::Handle successor) const
{
    MG_ASSERT(state.end <= numVisits_);
    uint32_t rank = edgeRank(successor);
    if (rank == kNoEdge || state.empty()) {
        return SearchState(successor, 0, 0);
    }
    uint64_t base = edges_[rank].offset;
    uint64_t lo = base + countBefore(state.start, rank);
    uint64_t hi = base + countBefore(state.end, rank);
    return SearchState(successor, lo, hi);
}

std::vector<SearchState>
DecodedRecord::successorStates(const SearchState& state) const
{
    std::vector<SearchState> out;
    successorStatesInto(state, out);
    return out;
}

void
DecodedRecord::successorStatesInto(const SearchState& state,
                                   std::vector<SearchState>& out) const
{
    if (state.empty()) {
        return;
    }
    MG_ASSERT(state.end <= numVisits_);
    const size_t num_edges = edges_.size();
    if (num_edges == 0) {
        return;
    }

    // Chain nodes (out-degree 1) are the overwhelmingly common case in a
    // bubble graph, and their LF mapping is closed-form: every run
    // references the only edge rank, so the visits before state.start are
    // exactly state.start and the range width carries over unchanged.  No
    // run scan at all.
    if (num_edges == 1) {
        if (edges_[0].successor.valid()) {
            const uint64_t base = edges_[0].offset + state.start;
            out.emplace_back(edges_[0].successor, base,
                             base + (state.end - state.start));
        }
        return;
    }

    // One-pass LF mapping for all edges at once.  The per-edge extend()
    // formulation rescans the run body once per edge per bound — O(E*R)
    // for the hottest query the extension kernel issues.  A single scan
    // accumulates, per edge rank, the visits before state.start (`lo`,
    // the rank offset) and the visits inside [start, end) (`in`, the
    // range width) — exactly countBefore(start) and
    // countBefore(end) - countBefore(start) — then emits the same states
    // in the same edge order.  Out-degrees beyond the stack buffers mean
    // a record far outside the bubble-chain regime; take the simple path.
    constexpr size_t kMaxFast = 32;
    if (num_edges > kMaxFast) {
        for (const RecordEdge& edge : edges_) {
            if (!edge.successor.valid()) {
                continue; // path-end marker
            }
            SearchState next = extend(state, edge.successor);
            if (!next.empty()) {
                out.push_back(next);
            }
        }
        return;
    }

    // Zero only the lanes in use: the full 32-lane clear is 512 bytes of
    // stores per call for a typical out-degree of 2.
    uint64_t lo[kMaxFast];
    uint64_t in[kMaxFast];
    for (size_t i = 0; i < num_edges; ++i) {
        lo[i] = 0;
        in[i] = 0;
    }
    uint64_t covered = 0;
    for (const RecordRun& run : runs_) {
        if (covered >= state.end) {
            break;
        }
        const uint64_t run_end = covered + run.length;
        if (run.edgeRank < num_edges) {
            if (covered < state.start) {
                lo[run.edgeRank] +=
                    std::min<uint64_t>(run_end, state.start) - covered;
            }
            if (run_end > state.start) {
                const uint64_t from =
                    std::max<uint64_t>(covered, state.start);
                const uint64_t to = std::min<uint64_t>(run_end, state.end);
                if (to > from) {
                    in[run.edgeRank] += to - from;
                }
            }
        }
        covered = run_end;
    }
    for (size_t i = 0; i < num_edges; ++i) {
        if (in[i] == 0 || !edges_[i].successor.valid()) {
            continue; // unvisited edge or path-end marker
        }
        const uint64_t base = edges_[i].offset + lo[i];
        out.emplace_back(edges_[i].successor, base, base + in[i]);
    }
}

size_t
DecodedRecord::footprintBytes() const
{
    size_t bytes = sizeof(DecodedRecord);
    if (!edges_.inlined()) {
        bytes += edges_.capacity() * sizeof(RecordEdge);
    }
    if (!runs_.inlined()) {
        bytes += runs_.capacity() * sizeof(RecordRun);
    }
    return bytes;
}

void
DecodedRecord::traceRead(util::MemTracer* tracer) const
{
    if (tracer == nullptr) {
        return;
    }
    // The lists follow the visit count inside the record, each with its
    // inline elements first, so one access from the record's start to the
    // last inline run in use covers the header, the edge list and the
    // runs.  A spilled list is one more access, at its heap block.
    const auto* begin = reinterpret_cast<const uint8_t*>(this);
    const auto* end = runs_.inlined()
                          ? reinterpret_cast<const uint8_t*>(runs_.end())
                          : reinterpret_cast<const uint8_t*>(&runs_);
    tracer->onAccess(begin, static_cast<uint32_t>(end - begin), false);
    if (!edges_.inlined()) {
        tracer->onAccess(edges_.data(),
                         static_cast<uint32_t>(edges_.size() *
                                               sizeof(RecordEdge)),
                         false);
    }
    if (!runs_.inlined()) {
        tracer->onAccess(runs_.data(),
                         static_cast<uint32_t>(runs_.size() *
                                               sizeof(RecordRun)),
                         false);
    }
}

void
DecodedRecord::encode(util::ByteWriter& writer) const
{
    writer.putVarint(edges_.size());
    uint64_t prev_packed = 0;
    for (const RecordEdge& edge : edges_) {
        uint64_t packed = edge.successor.packed();
        // Edges are sorted by successor, so deltas are small non-negatives.
        writer.putVarint(packed - prev_packed);
        prev_packed = packed;
        writer.putVarint(edge.offset);
    }
    writer.putVarint(runs_.size());
    for (const RecordRun& run : runs_) {
        writer.putVarint(run.edgeRank);
        writer.putVarint(run.length);
    }
}

DecodedRecord
DecodedRecord::decode(util::ByteCursor& cursor)
{
    DecodedRecord record;
    decodeInto(cursor, record);
    return record;
}

void
DecodedRecord::decodeInto(util::ByteCursor& cursor, DecodedRecord& out)
{
    // Fault point: a bit-flipped record surviving the container checksum,
    // or an allocation failure while decompressing under memory pressure.
    fault::inject("gbwt.record.decode");

    out.clear();

    uint64_t num_edges = cursor.getVarint();
    // Every edge takes at least two bytes; bounding the count before the
    // reserve keeps a corrupted varint from requesting terabytes.
    cursor.check(num_edges <= cursor.remaining(), util::StatusCode::Corrupt,
                 "record edge count exceeds remaining payload");
    out.edges_.reserve(num_edges);
    uint64_t packed = 0;
    for (uint64_t i = 0; i < num_edges; ++i) {
        packed += cursor.getVarint();
        RecordEdge edge;
        edge.successor = graph::Handle::fromPacked(packed);
        edge.offset = cursor.getVarint();
        out.edges_.push_back(edge);
    }
    uint64_t num_runs = cursor.getVarint();
    cursor.check(num_runs <= cursor.remaining(), util::StatusCode::Corrupt,
                 "record run count exceeds remaining payload");
    out.runs_.reserve(num_runs);
    uint64_t visits = 0;
    for (uint64_t i = 0; i < num_runs; ++i) {
        uint64_t rank = cursor.getVarint();
        uint64_t length = cursor.getVarint();
        cursor.check(rank < num_edges || num_edges == 0,
                     util::StatusCode::Corrupt,
                     "record run references edge rank out of range");
        cursor.check(length <= UINT32_MAX, util::StatusCode::Corrupt,
                     "record run length overflows");
        RecordRun run;
        run.edgeRank = static_cast<uint32_t>(rank);
        run.length = static_cast<uint32_t>(length);
        visits += run.length;
        out.runs_.push_back(run);
    }
    out.numVisits_ = visits;
}

} // namespace mg::gbwt
