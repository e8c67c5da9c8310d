/**
 * @file
 * Distance index (Section II-B).  Giraffe's distance index answers
 * minimum-graph-distance queries between seed positions so the clusterer
 * can group seeds that plausibly come from the same placement of a read.
 *
 * Our pangenomes are acyclic in forward orientation (bubble chains), which
 * permits a compact formulation:
 *  - a *chain coordinate* per node (minimum base distance from any source),
 *    computed by one topological DP, giving an O(1) distance estimate used
 *    by the clusterer, and
 *  - an exact bounded Dijkstra used by the clusterer's refinement stage
 *    to verify that two seeds are co-reachable.
 *
 * There is no snarl tree behind minDistance: on the analogs almost every
 * query the clusterer makes resolves on one node, and the rest visit a
 * handful of nodes within the cap, so the search is cheap once it stops
 * allocating (DESIGN.md §3d).
 */
#pragma once

#include <cstdint>
#include <vector>

#include "graph/handle.h"
#include "graph/variation_graph.h"
#include "mem/arena.h"

namespace mg::index {

/** Returned when two positions are unreachable within the query cap. */
inline constexpr int64_t kUnreachable = INT64_MAX;

/**
 * Largest chain coordinate an index admits.  The clusterer packs
 * coordinates into 32-bit sort-key fields and the per-node prefix array
 * is int32_t, so building or binding an index over a graph whose
 * coordinates exceed this throws a StatusError.
 */
inline constexpr int64_t kMaxChainCoordinate = INT32_MAX;

/**
 * Precomputed distance information over the forward DAG of a variation
 * graph.
 */
class DistanceIndex
{
  public:
    DistanceIndex() = default;

    /** Preprocess the graph (one topological sweep).  Throws StatusError
     *  (InvalidArgument) if a chain coordinate would exceed
     *  kMaxChainCoordinate. */
    explicit DistanceIndex(const graph::VariationGraph& graph);

    /**
     * Chain coordinate of a forward position: minimum distance in bases
     * from any graph source to this exact base.  Two positions on the same
     * placement of a read have coordinates that differ by approximately
     * their read-offset difference, which is what the clusterer keys on.
     */
    int64_t chainCoordinate(const graph::Position& pos) const;

    /**
     * Estimated minimum distance from position a to position b (signed:
     * negative if b's coordinate precedes a's).  Exact on a single chain;
     * within one bubble's detour length otherwise.
     */
    int64_t estimatedDistance(const graph::Position& a,
                              const graph::Position& b) const;

    /**
     * Exact minimum walk-index distance from a to b along forward edges:
     * the number of bases stepped when walking from base a to base b
     * (0 for a == b, 1 if b immediately follows a), or kUnreachable if no
     * walk within the cap exists.  Consistent with chainCoordinate: on a
     * common shortest walk, minDistance == coordinate(b) - coordinate(a).
     * Searches in per-thread scratch reused across calls, which grows to
     * the nodes one search visits (bounded by the cap), not to
     * numNodes(); warm, a query allocates nothing.
     */
    int64_t minDistance(const graph::VariationGraph& graph,
                        const graph::Position& a, const graph::Position& b,
                        int64_t cap) const;

    size_t numNodes() const { return minFromSource_.size(); }

    /** Min-prefix array, one entry per node (container serialization). */
    const mem::ArenaView<int32_t>& minFromSource() const
    {
        return minFromSource_;
    }

    /** True when the array is mmap-backed (container load). */
    bool isMapped() const { return minFromSource_.isMapped(); }

    /** Heap/mapped bytes of the array. */
    size_t footprintBytes() const { return minFromSource_.bytes(); }

    /**
     * Rebind onto the per-node array inside a mapped container, for
     * `graph`.  Throws util::Error if the array size disagrees with the
     * graph's node count, and StatusError (Corrupt) if a chain coordinate
     * falls outside [0, kMaxChainCoordinate].
     */
    void bindMapped(std::shared_ptr<mem::MappedFile> file,
                    const graph::VariationGraph& graph,
                    const int32_t* min_from_source, size_t num_nodes);

  private:
    mem::ArenaView<int32_t> minFromSource_; // node id - 1 -> min prefix
};

} // namespace mg::index
