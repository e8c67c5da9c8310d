/**
 * @file
 * GBWT construction.  Visit lists are finalized in topological order of the
 * path-step relation, yielding the canonical GBWT ordering: path starts
 * first, then incoming visits grouped by predecessor.  Because groups stay
 * contiguous and preserve the predecessor's visit order, LF mapping with
 * per-edge offsets is exact (tests verify extension against raw path
 * replay).
 *
 * Construction is parallel with deterministic output: paths are scanned in
 * *fixed-size* batches (batch membership never depends on the thread
 * count), the visit-order DP runs serially (its output is a pure function
 * of the path set — visit ordering is defined by path order and
 * predecessor-handle order, not by topological tie-breaking), and records
 * are encoded in *fixed-size* slot shards whose byte streams concatenate in
 * shard order.  The resulting index is byte-identical for 1, 4, or 64
 * build threads, which is what lets MGZ v3 containers be reproducible
 * artifacts (mmapv3 determinism tests pin this).
 */
#include "gbwt/gbwt.h"

#include <algorithm>
#include <thread>

#include "sched/scheduler.h"
#include "util/common.h"
#include "util/status.h"

namespace mg::gbwt {

namespace {

/** Paths per phase-1 scan batch (fixed: batching must not depend on the
 *  thread count or the merge order would).  */
constexpr size_t kPathBatch = 16;

/** Oriented-node slots per phase-3 encode shard. */
constexpr size_t kSlotShard = 2048;

/** A visit waiting at a slot for its predecessor group to be placed. */
struct PendingVisit
{
    uint64_t pred;
    uint32_t path;
    uint32_t step;
};

/** Run work(i) for i in [0, count), over `threads` workers. */
void
runParallel(size_t count, unsigned threads,
            const std::function<void(size_t)>& work)
{
    if (count == 0) {
        return;
    }
    if (threads <= 1 || count == 1) {
        for (size_t i = 0; i < count; ++i) {
            work(i);
        }
        return;
    }
    auto scheduler = sched::makeScheduler(sched::SchedulerKind::WorkStealing);
    scheduler->run(count, 1, std::min<size_t>(threads, count),
                   [&](size_t, size_t begin, size_t end) {
                       for (size_t i = begin; i < end; ++i) {
                           work(i);
                       }
                   });
}

} // namespace

void
GbwtBuilder::addPath(const std::vector<graph::Handle>& steps)
{
    MG_CHECK(!steps.empty(), "GBWT paths must be non-empty");
    for (graph::Handle step : steps) {
        MG_CHECK(step.valid(), "GBWT paths must use valid handles");
        MG_CHECK(!step.isReverse(),
                 "add forward walks only; the builder derives the reverse");
    }
    paths_.push_back(steps);
    // Reverse-complement walk: flipped handles in reverse order.
    std::vector<graph::Handle> reverse;
    reverse.reserve(steps.size());
    for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
        reverse.push_back(it->flip());
    }
    paths_.push_back(std::move(reverse));
}

Gbwt
GbwtBuilder::build() &&
{
    return std::move(*this).build(1);
}

Gbwt
GbwtBuilder::build(unsigned threads) &&
{
    if (threads == 0) {
        threads = std::max(1u, std::thread::hardware_concurrency());
    }
    Gbwt gbwt;
    gbwt.numPaths_ = paths_.size();
    if (paths_.empty()) {
        gbwt.recordOffsets_.owned().assign(1, 0);
        gbwt.docOffsets_.owned().assign(1, 0);
        return gbwt;
    }

    // ---- Phase 1 (parallel): scan fixed path batches for the distinct
    // step relation (v -> w), the occurring slots, and the slot range.
    struct BatchScan
    {
        std::vector<std::pair<uint64_t, uint64_t>> edges;
        std::vector<uint64_t> slots;
        uint64_t maxPacked = 0;
    };
    const size_t num_batches = (paths_.size() + kPathBatch - 1) / kPathBatch;
    std::vector<BatchScan> scans(num_batches);
    runParallel(num_batches, threads, [&](size_t b) {
        BatchScan& scan = scans[b];
        const size_t lo = b * kPathBatch;
        const size_t hi = std::min(paths_.size(), lo + kPathBatch);
        for (size_t p = lo; p < hi; ++p) {
            const auto& path = paths_[p];
            for (size_t i = 0; i < path.size(); ++i) {
                uint64_t v = path[i].packed();
                scan.maxPacked = std::max(scan.maxPacked, v);
                scan.slots.push_back(v);
                if (i + 1 < path.size()) {
                    scan.edges.emplace_back(v, path[i + 1].packed());
                }
            }
        }
        std::sort(scan.edges.begin(), scan.edges.end());
        scan.edges.erase(
            std::unique(scan.edges.begin(), scan.edges.end()),
            scan.edges.end());
        std::sort(scan.slots.begin(), scan.slots.end());
        scan.slots.erase(
            std::unique(scan.slots.begin(), scan.slots.end()),
            scan.slots.end());
    });

    uint64_t max_packed = 0;
    std::vector<std::pair<uint64_t, uint64_t>> edges;
    std::vector<uint64_t> present;
    for (const BatchScan& scan : scans) {
        max_packed = std::max(max_packed, scan.maxPacked);
        edges.insert(edges.end(), scan.edges.begin(), scan.edges.end());
        present.insert(present.end(), scan.slots.begin(), scan.slots.end());
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    std::sort(present.begin(), present.end());
    present.erase(std::unique(present.begin(), present.end()),
                  present.end());
    const size_t num_slots = max_packed + 1;

    // CSR successor lists + in-degrees of the step relation (edges are
    // sorted by source, so successor runs are contiguous).
    std::vector<uint64_t> succ_start(num_slots + 1, 0);
    std::vector<uint32_t> in_degree(num_slots, 0);
    for (const auto& [v, w] : edges) {
        ++succ_start[v + 1];
        ++in_degree[w];
    }
    for (size_t s = 0; s < num_slots; ++s) {
        succ_start[s + 1] += succ_start[s];
    }

    // ---- Topological order (Kahn over occurring slots).  The *order* of
    // ties is irrelevant to the output: visit lists depend only on path
    // order and predecessor-handle order, never on which ready slot pops
    // first.
    std::vector<uint64_t> frontier;
    for (uint64_t v : present) {
        if (in_degree[v] == 0) {
            frontier.push_back(v);
        }
    }
    std::vector<uint64_t> topo;
    topo.reserve(present.size());
    while (!frontier.empty()) {
        uint64_t v = frontier.back();
        frontier.pop_back();
        topo.push_back(v);
        for (uint64_t e = succ_start[v]; e < succ_start[v + 1]; ++e) {
            uint64_t w = edges[e].second;
            if (--in_degree[w] == 0) {
                frontier.push_back(w);
            }
        }
    }
    MG_CHECK(topo.size() == present.size(),
             "GBWT construction requires acyclic haplotype walks");

    // ---- Phase 2 (serial): visit-order DP.  visits[slot] holds the
    // ordered next-handle per visit (0 = path end); docs[slot] the
    // oriented-path id per visit (locate()'s document array).
    std::vector<std::vector<uint64_t>> visits(num_slots);
    std::vector<std::vector<uint32_t>> docs(num_slots);
    std::vector<std::vector<PendingVisit>> pending(num_slots);
    std::vector<std::vector<uint32_t>> starts(num_slots);
    for (uint32_t p = 0; p < paths_.size(); ++p) {
        starts[paths_[p].front().packed()].push_back(p);
    }
    // edge_group_offset[i] = start of edges[i].first's visit group inside
    // edges[i].second's list — the LF-mapping offset stored in records.
    std::vector<uint64_t> edge_group_offset(edges.size(), 0);
    auto edge_index = [&](uint64_t v, uint64_t w) -> size_t {
        auto it = std::lower_bound(edges.begin(), edges.end(),
                                   std::make_pair(v, w));
        MG_ASSERT(it != edges.end() && *it == std::make_pair(v, w));
        return static_cast<size_t>(it - edges.begin());
    };

    auto next_of = [&](uint32_t path, uint32_t step) -> uint64_t {
        const auto& steps = paths_[path];
        return step + 1 < steps.size() ? steps[step + 1].packed() : 0;
    };

    for (uint64_t w : topo) {
        auto& list = visits[w];
        auto& doc_list = docs[w];
        auto emit = [&](uint32_t path, uint32_t step) {
            uint64_t next = next_of(path, step);
            list.push_back(next);
            doc_list.push_back(path);
            if (next != 0) {
                pending[next].push_back(
                    PendingVisit{w, path, static_cast<uint32_t>(step + 1)});
            }
        };
        for (uint32_t p : starts[w]) {
            emit(p, 0);
        }
        auto& queued = pending[w];
        if (!queued.empty()) {
            // Groups ordered by predecessor handle; stable sort keeps each
            // predecessor's visit order (appends were contiguous per pred).
            std::stable_sort(queued.begin(), queued.end(),
                             [](const PendingVisit& a,
                                const PendingVisit& b) {
                                 return a.pred < b.pred;
                             });
            for (size_t i = 0; i < queued.size(); ++i) {
                if (i == 0 || queued[i].pred != queued[i - 1].pred) {
                    edge_group_offset[edge_index(queued[i].pred, w)] =
                        list.size();
                }
                emit(queued[i].path, queued[i].step);
            }
            queued.clear();
            queued.shrink_to_fit();
        }
        gbwt.totalVisits_ += list.size();
    }

    // ---- Phase 3 (parallel): encode records + document arrays in fixed
    // slot shards; per-slot sizes prefix-sum into the final offset tables
    // and the shard streams concatenate in shard order.
    const size_t num_shards = (num_slots + kSlotShard - 1) / kSlotShard;
    struct ShardOut
    {
        std::vector<uint8_t> recordBytes;
        std::vector<uint8_t> docBytes;
        std::vector<uint64_t> recordSizes;  // per slot in shard
        std::vector<uint64_t> docSizes;
    };
    std::vector<ShardOut> shards(num_shards);
    runParallel(num_shards, threads, [&](size_t s) {
        ShardOut& out = shards[s];
        const uint64_t lo = s * kSlotShard;
        const uint64_t hi =
            std::min<uint64_t>(num_slots, lo + kSlotShard);
        util::ByteWriter writer;
        util::ByteWriter doc_writer;
        std::vector<uint64_t> distinct;
        for (uint64_t slot = lo; slot < hi; ++slot) {
            const size_t rec_before = writer.size();
            const size_t doc_before = doc_writer.size();
            const std::vector<uint64_t>& nexts = visits[slot];
            if (!nexts.empty()) {
                // Edge list: sorted distinct next handles (0 == end
                // marker sorts first).
                distinct.assign(nexts.begin(), nexts.end());
                std::sort(distinct.begin(), distinct.end());
                distinct.erase(
                    std::unique(distinct.begin(), distinct.end()),
                    distinct.end());
                std::vector<RecordEdge> record_edges;
                record_edges.reserve(distinct.size());
                for (uint64_t next : distinct) {
                    RecordEdge edge;
                    edge.successor = graph::Handle::fromPacked(next);
                    edge.offset =
                        next == 0
                            ? 0
                            : edge_group_offset[edge_index(slot, next)];
                    record_edges.push_back(edge);
                }
                // RLE body over edge ranks.
                std::vector<RecordRun> runs;
                for (uint64_t next : nexts) {
                    auto rank = static_cast<uint32_t>(
                        std::lower_bound(distinct.begin(), distinct.end(),
                                         next) -
                        distinct.begin());
                    if (!runs.empty() && runs.back().edgeRank == rank) {
                        ++runs.back().length;
                    } else {
                        runs.push_back(RecordRun{rank, 1});
                    }
                }
                DecodedRecord record(std::move(record_edges),
                                     std::move(runs), nexts.size());
                record.encode(writer);
                for (uint32_t path : docs[slot]) {
                    doc_writer.putVarint(path);
                }
            }
            out.recordSizes.push_back(writer.size() - rec_before);
            out.docSizes.push_back(doc_writer.size() - doc_before);
        }
        out.recordBytes = writer.takeBytes();
        out.docBytes = doc_writer.takeBytes();
    });

    auto& record_offsets = gbwt.recordOffsets_.owned();
    auto& doc_offsets = gbwt.docOffsets_.owned();
    auto& arena = gbwt.arena_.owned();
    auto& doc_arena = gbwt.docArena_.owned();
    record_offsets.reserve(num_slots + 1);
    doc_offsets.reserve(num_slots + 1);
    record_offsets.push_back(0);
    doc_offsets.push_back(0);
    size_t arena_total = 0;
    size_t doc_total = 0;
    for (const ShardOut& out : shards) {
        arena_total += out.recordBytes.size();
        doc_total += out.docBytes.size();
    }
    arena.reserve(arena_total);
    doc_arena.reserve(doc_total);
    for (const ShardOut& out : shards) {
        for (uint64_t size : out.recordSizes) {
            record_offsets.push_back(
                util::fitU32(record_offsets.back() + size, "gbwt.offsets"));
        }
        for (uint64_t size : out.docSizes) {
            doc_offsets.push_back(
                util::fitU32(doc_offsets.back() + size, "gbwt.docoffs"));
        }
        arena.insert(arena.end(), out.recordBytes.begin(),
                     out.recordBytes.end());
        doc_arena.insert(doc_arena.end(), out.docBytes.begin(),
                         out.docBytes.end());
    }
    MG_ASSERT(record_offsets.size() == num_slots + 1);
    MG_ASSERT(record_offsets.back() == arena.size());
    MG_ASSERT(doc_offsets.back() == doc_arena.size());
    return gbwt;
}

} // namespace mg::gbwt
