#include "map/cluster.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "util/common.h"

namespace mg::map {

namespace {

/**
 * Sort keys are packed uint64 words, `field << 32 | seed`: ordering the
 * words orders by the field and then by seed index, the tie-break every
 * stage uses, and sorts 8-byte integers instead of records.  The fields
 * fit 32 bits because chain coordinates are at most kMaxChainCoordinate
 * (2^31 - 1, checked when the distance index is built or bound); the
 * read-offset-adjusted key, coordinate minus read offset, is lifted by
 * kKeyBias so it stays non-negative for read offsets up to 2^31.
 */
constexpr int64_t kKeyBias = int64_t{1} << 31;

constexpr uint64_t
pack(uint64_t field, uint32_t seed)
{
    return field << 32 | seed;
}

constexpr uint32_t
seedOf(uint64_t packed)
{
    return static_cast<uint32_t>(packed);
}

constexpr int64_t
fieldOf(uint64_t packed)
{
    return static_cast<int64_t>(packed >> 32);
}

/**
 * Sort packed keys into (field, seed) order, given keys listed in
 * ascending seed order.  Large arrays take a stable LSD radix sort on
 * the field's bytes, skipping bytes no two keys differ in: a comparison
 * sort of one read's keys is dominated by mispredicted branches.  Below
 * kRadixMin keys (about where the two cross on x86-64) std::sort is
 * faster, and reaches the same order.
 */
void
sortSeedOrderedKeys(std::vector<uint64_t>& keys,
                    std::vector<uint64_t>& buffer)
{
    constexpr size_t kRadixMin = 48;
    const size_t n = keys.size();
    if (n < kRadixMin) {
        std::sort(keys.begin(), keys.end());
        return;
    }
    uint64_t differing = 0;
    for (uint64_t key : keys) {
        differing |= (key ^ keys.front()) >> 32;
    }
    // Passes alternate between the two arrays; each keeps its own
    // capacity, so steady-state sorting allocates nothing.
    buffer.resize(n);
    uint64_t* from = keys.data();
    uint64_t* to = buffer.data();
    for (unsigned shift = 32; shift < 64; shift += 8) {
        if (((differing >> (shift - 32)) & 0xff) == 0) {
            continue;
        }
        uint32_t starts[256] = {};
        for (size_t i = 0; i < n; ++i) {
            ++starts[(from[i] >> shift) & 0xff];
        }
        uint32_t total = 0;
        for (uint32_t& start : starts) {
            const uint32_t count = start;
            start = total;
            total += count;
        }
        for (size_t i = 0; i < n; ++i) {
            to[starts[(from[i] >> shift) & 0xff]++] = from[i];
        }
        std::swap(from, to);
    }
    if (from != keys.data()) {
        std::copy(from, from + n, keys.data());
    }
}

/** One finished cluster: its members are `count` seed indices starting
 *  at `begin` in ClusterScratch::members. */
struct ClusterInfo
{
    float score = 0.0f;
    uint32_t coverage = 0;
    uint32_t begin = 0;
    uint32_t count = 0;
    bool onReverseRead = false;
};

/**
 * Per-thread reusable buffers.  clusterSeedsInto runs once per read on the
 * mapping hot path; every buffer keeps its capacity across reads, so once
 * warm a read clusters without allocating.
 */
struct ClusterScratch
{
    std::vector<uint32_t> coords;   // chain coordinate of each seed
    std::vector<uint64_t> forward;  // (key + bias) << 32 | seed, per strand
    std::vector<uint64_t> reverse;
    std::vector<uint64_t> radix;    // sortSeedOrderedKeys's buffer
    std::vector<uint64_t> ordered;  // coord << 32 | seed, one group
    std::vector<uint64_t> byOffset; // readOffset << 32 | seed, one cluster
    std::vector<uint32_t> members;  // every cluster's seeds, back to back
    std::vector<ClusterInfo> clusters;
    std::vector<std::pair<uint64_t, uint32_t>> order; // (sort key, cluster)
    /** Cluster objects parked while the caller's vector is shorter than
     *  on an earlier read, so their seed-index capacity is kept. */
    std::vector<Cluster> spare;
};

ClusterScratch&
scratch()
{
    static thread_local ClusterScratch s;
    return s;
}

/**
 * Score one finished cluster (the seeds packed in `group[0, count)`) and
 * append it.  Score counts each distinct read offset once: many graph
 * placements of one minimizer are one piece of evidence.  Members are
 * listed in read-offset order for the dedup.
 */
void
emitCluster(const SeedVector& seeds, const uint64_t* group, size_t count,
            bool on_reverse, ClusterScratch& s)
{
    std::vector<uint64_t>& by_offset = s.byOffset;
    by_offset.clear();
    for (size_t i = 0; i < count; ++i) {
        const uint32_t seed = seedOf(group[i]);
        by_offset.push_back(pack(seeds[seed].readOffset, seed));
    }
    std::sort(by_offset.begin(), by_offset.end());
    ClusterInfo cluster;
    cluster.onReverseRead = on_reverse;
    cluster.begin = static_cast<uint32_t>(s.members.size());
    cluster.count = static_cast<uint32_t>(count);
    int64_t last_offset = -1;
    for (uint64_t member : by_offset) {
        const uint32_t seed = seedOf(member);
        s.members.push_back(seed);
        if (fieldOf(member) != last_offset) {
            cluster.score += seeds[seed].score;
            ++cluster.coverage;
            last_offset = fieldOf(member);
        }
    }
    s.clusters.push_back(cluster);
}

/**
 * Stage 2: split a key-proximate group wherever adjacent seeds are not
 * actually co-reachable in the graph at (approximately) the distance
 * their coordinates imply.  These bounded Dijkstra queries are the
 * distance-index traversals that make cluster_seeds expensive in the
 * parent application.
 */
void
refineAndEmit(const graph::VariationGraph& graph,
              const index::DistanceIndex& distance,
              const SeedVector& seeds, const uint64_t* group, size_t count,
              bool on_reverse, const ClusterParams& params,
              ClusterScratch& s, util::MemTracer* tracer)
{
    if (!params.exactRefinement || count < 2) {
        emitCluster(seeds, group, count, on_reverse, s);
        return;
    }
    // Verify adjacency in raw-coordinate order.  Segments of consistent
    // neighbours are contiguous ranges of the sorted array, so each split
    // emits a (pointer, count) slice directly.
    std::vector<uint64_t>& ordered = s.ordered;
    ordered.clear();
    for (size_t i = 0; i < count; ++i) {
        const uint32_t seed = seedOf(group[i]);
        ordered.push_back(pack(s.coords[seed], seed));
    }
    std::sort(ordered.begin(), ordered.end());
    size_t segment_begin = 0;
    for (size_t i = 1; i < ordered.size(); ++i) {
        const graph::Position& from = seeds[seedOf(ordered[i - 1])].position;
        const graph::Position& to = seeds[seedOf(ordered[i])].position;
        const int64_t expected = fieldOf(ordered[i]) - fieldOf(ordered[i - 1]);
        bool consistent = true;
        if (!(from == to)) {
            util::traceWork(tracer, 64);
            int64_t exact = distance.minDistance(
                graph, from, to, expected + params.exactDistanceCap);
            consistent = exact != index::kUnreachable &&
                         std::llabs(exact - expected) <=
                             params.distanceLimit;
        }
        if (!consistent) {
            emitCluster(seeds, ordered.data() + segment_begin,
                        i - segment_begin, on_reverse, s);
            segment_begin = i;
        }
    }
    emitCluster(seeds, ordered.data() + segment_begin,
                ordered.size() - segment_begin, on_reverse, s);
}

/** Stage 1 on one strand: sort by adjusted key, split at key gaps. */
void
sweepOrientation(const graph::VariationGraph& graph,
                 const index::DistanceIndex& distance,
                 const SeedVector& seeds, std::vector<uint64_t>& keyed,
                 bool on_reverse, const ClusterParams& params,
                 ClusterScratch& s, util::MemTracer* tracer)
{
    if (keyed.empty()) {
        return;
    }
    sortSeedOrderedKeys(keyed, s.radix);
    util::traceAccess(tracer, keyed.data(),
                      static_cast<uint32_t>(keyed.size() * sizeof(uint64_t)));
    util::traceWork(tracer, keyed.size() * 8);

    size_t begin = 0;
    for (size_t i = 1; i <= keyed.size(); ++i) {
        bool split = i == keyed.size() ||
                     fieldOf(keyed[i]) - fieldOf(keyed[i - 1]) >
                         params.distanceLimit;
        if (!split) {
            continue;
        }
        refineAndEmit(graph, distance, seeds, keyed.data() + begin,
                      i - begin, on_reverse, params, s, tracer);
        begin = i;
    }
}

/**
 * Resize `out` to `n` clusters without destroying any: surplus objects
 * park in `spare` and come back first (last parked, first returned), so
 * position i keeps the same object, and its spilled seed-index capacity,
 * from read to read.
 */
void
resizeKeeping(std::vector<Cluster>& out, size_t n, std::vector<Cluster>& spare)
{
    while (out.size() > n) {
        spare.push_back(std::move(out.back()));
        out.pop_back();
    }
    while (out.size() < n) {
        if (spare.empty()) {
            out.emplace_back();
        } else {
            out.push_back(std::move(spare.back()));
            spare.pop_back();
        }
    }
}

} // namespace

void
clusterSeedsInto(const graph::VariationGraph& graph,
                 const index::DistanceIndex& distance,
                 const SeedVector& seeds, const ClusterParams& params,
                 std::vector<Cluster>& out, util::MemTracer* tracer)
{
    MG_ASSERT(seeds.size() <= INT32_MAX);
    ClusterScratch& s = scratch();
    s.coords.resize(seeds.size());
    s.forward.clear();
    s.reverse.clear();
    s.members.clear();
    s.clusters.clear();
    for (uint32_t i = 0; i < seeds.size(); ++i) {
        const Seed& seed = seeds[i];
        util::traceAccess(tracer, &seed, sizeof(Seed));
        MG_ASSERT(seed.readOffset <= kKeyBias);
        const int64_t coord = distance.chainCoordinate(seed.position);
        s.coords[i] = static_cast<uint32_t>(coord);
        const uint64_t key = static_cast<uint64_t>(
            coord - static_cast<int64_t>(seed.readOffset) + kKeyBias);
        (seed.onReverseRead ? s.reverse : s.forward).push_back(pack(key, i));
    }

    sweepOrientation(graph, distance, seeds, s.forward, false, params, s,
                     tracer);
    sweepOrientation(graph, distance, seeds, s.reverse, true, params, s,
                     tracer);

    // Processing order: descending score, forward strand first, then the
    // seed lists lexicographically.  Clusters partition the seeds, so two
    // lists differ at their first seed, which decides that tie; scores
    // are positive, so their bits order like the floats.  One packed key
    // per cluster carries all three, and no two keys are equal.
    const uint32_t* members = s.members.data();
    std::vector<std::pair<uint64_t, uint32_t>>& order = s.order;
    order.clear();
    for (uint32_t c = 0; c < s.clusters.size(); ++c) {
        const ClusterInfo& info = s.clusters[c];
        const uint64_t score_bits = std::bit_cast<uint32_t>(info.score);
        order.emplace_back((~score_bits & 0xffffffffu) << 32 |
                               uint64_t{info.onReverseRead} << 31 |
                               members[info.begin],
                           c);
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });

    resizeKeeping(out, s.clusters.size(), s.spare);
    for (size_t c = 0; c < order.size(); ++c) {
        const ClusterInfo& info = s.clusters[order[c].second];
        Cluster& cluster = out[c];
        cluster.seedIndices.assign(members + info.begin,
                                   members + info.begin + info.count);
        cluster.score = info.score;
        cluster.coverage = info.coverage;
        cluster.onReverseRead = info.onReverseRead;
    }
}

std::vector<Cluster>
clusterSeeds(const graph::VariationGraph& graph,
             const index::DistanceIndex& distance, const SeedVector& seeds,
             const ClusterParams& params, util::MemTracer* tracer)
{
    std::vector<Cluster> clusters;
    clusterSeedsInto(graph, distance, seeds, params, clusters, tracer);
    return clusters;
}

} // namespace mg::map
