/**
 * @file
 * cluster_seeds — the second most expensive region of Giraffe's mapping
 * (11-21% of runtime, Section IV-A).  Seeds whose graph positions are
 * consistent with a single placement of the read are grouped into clusters
 * and scored; high-scoring clusters are the inputs of
 * process_until_threshold_c (map/mapper.h).
 *
 * Clustering proceeds in two stages, mirroring the structure (and the
 * cost profile) of Giraffe's distance-index clusterer:
 *  1. a sorted single-linkage sweep over read-offset-adjusted chain
 *     coordinates — a seed at read offset r placed at coordinate c implies
 *     the read start sits near (c - r), so co-placed seeds share that key;
 *  2. an exact-distance refinement: adjacent seeds of a tentative cluster
 *     are verified with bounded minimum-distance queries against the
 *     graph (the expensive distance-index traversals of the real
 *     clusterer), splitting groups whose members are not actually
 *     co-reachable at the expected distance.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "graph/variation_graph.h"
#include "index/distance.h"
#include "map/seed.h"
#include "util/mem_tracer.h"
#include "util/small_vector.h"

namespace mg::map {

/** Clustering knobs. */
struct ClusterParams
{
    /**
     * Max gap between adjacent adjusted coordinates inside one cluster
     * (bases).  Giraffe uses a fragment-scale distance limit; for
     * single-end short reads a small slack suffices.
     */
    int64_t distanceLimit = 32;
    /**
     * Run the exact-distance refinement stage (stage 2 above).  Exposed
     * so tests can compare against the sweep-only behaviour.
     */
    bool exactRefinement = true;
    /** Exploration cap of each exact minimum-distance query (bases). */
    int64_t exactDistanceCap = 512;
};

/** One cluster of seeds for one read orientation. */
struct Cluster
{
    /**
     * Indices into the read's seed vector.  Inline storage sized for the
     * common case so that forming a cluster performs no heap allocation;
     * only unusually seed-dense clusters spill.
     */
    util::SmallVector<uint32_t, 16> seedIndices;
    /** Sum of distinct-read-offset seed scores (Giraffe-style quality). */
    float score = 0.0f;
    /** Distinct read minimizer offsets covered (evidence breadth). */
    uint32_t coverage = 0;
    bool onReverseRead = false;
};

/**
 * Group the seeds of one read into clusters, separately per orientation,
 * and score them.  Output is sorted by descending score (processing order
 * of process_until_threshold_c).
 */
std::vector<Cluster> clusterSeeds(const graph::VariationGraph& graph,
                                  const index::DistanceIndex& distance,
                                  const SeedVector& seeds,
                                  const ClusterParams& params,
                                  util::MemTracer* tracer = nullptr);

/**
 * The hot-loop variant: refills `out` in place, reusing its Cluster
 * objects (and their seed-index capacity) and per-thread scratch across
 * reads, so a caller that keeps one vector clusters without allocating
 * once the buffers are warm.  Identical output to clusterSeeds.
 */
void clusterSeedsInto(const graph::VariationGraph& graph,
                      const index::DistanceIndex& distance,
                      const SeedVector& seeds, const ClusterParams& params,
                      std::vector<Cluster>& out,
                      util::MemTracer* tracer = nullptr);

} // namespace mg::map
