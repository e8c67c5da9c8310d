/**
 * @file
 * The mapping pipeline core shared by miniGiraffe (the proxy) and the
 * parent emulator.  Per read: seeds -> cluster_seeds ->
 * process_until_threshold_c (score-thresholded cluster processing calling
 * the gapless extender) -> raw extensions (the proxy's output).
 *
 * process_until_threshold_c follows the semantics the paper describes for
 * Giraffe's helper of the same name: candidate clusters are visited in
 * descending score order and processed while their score stays within a
 * fraction of the best cluster's score, with floor and ceiling counts.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "gbwt/cached_gbwt.h"
#include "graph/variation_graph.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "map/cluster.h"
#include "map/extender.h"
#include "map/read.h"
#include "map/seeding.h"
#include "map/tally.h"
#include "obs/hub.h"
#include "perf/profiler.h"
#include "resilience/budget.h"
#include "util/timer.h"

namespace mg::map {

/** End-to-end mapping parameters (defaults mirror the paper's defaults). */
struct MapperParams
{
    SeedingParams seeding;
    ClusterParams cluster;
    ExtendParams extend;
    /** Process clusters scoring at least this fraction of the best
     *  (Giraffe's absolute cluster-score threshold admits many clusters;
     *  a low fraction mirrors that permissiveness). */
    double clusterScoreFraction = 0.02;
    /** Always process at least this many clusters (if available). */
    size_t minClusters = 2;
    /** Never process more than this many clusters per read. */
    size_t maxClusters = 48;
    /** Distinct seeds extended per processed cluster. */
    size_t maxSeedsPerCluster = 4;
    /**
     * Extension prefilter: within a processed cluster, skip chosen seeds
     * scoring below this fraction of the cluster's best chosen seed —
     * they restate evidence the best seed already provides and their
     * extensions almost always lose the dedup anyway.  Killed seeds are
     * counted (mg_map_extensions_aborted_total{reason="prefilter"}), not
     * attempted.  0 disables the filter (the default: the golden output
     * gate requires byte-identical GAF, which only holds when every seed
     * extends).
     */
    double prefilterFraction = 0.0;
    /** Extensions kept per read (best first). */
    size_t maxExtensions = 16;
    /** Initial CachedGBWT capacity (0 disables caching). */
    size_t gbwtCacheCapacity = gbwt::CachedGbwt::kDefaultInitialCapacity;
};

/**
 * A walked seed whose extension may stand in for a later seed of the same
 * read (see coveringAnchor).  Only seeds whose two directional walks both
 * ran to completion become anchors.
 */
struct ExtensionAnchor
{
    graph::Handle handle;    // the seed's oriented node
    int64_t diagonal = 0;    // node offset minus read offset
    uint32_t readOffset = 0;
    bool onReverseRead = false;
    uint32_t candidate = 0;  // index of its extension in the candidate list

    /** The anchor for `seed`, whose extension is candidates[candidate]. */
    static ExtensionAnchor
    at(const Seed& seed, uint32_t candidate)
    {
        return ExtensionAnchor{seed.position.handle,
                               static_cast<int64_t>(seed.position.offset) -
                                   static_cast<int64_t>(seed.readOffset),
                               seed.readOffset, seed.onReverseRead,
                               candidate};
    }
};

/**
 * The anchor whose extension extendSeed(seed) would reproduce exactly, or
 * null.  An anchor s1 with extension E covers a seed s2 when they share the
 * read orientation and the oriented node, lie on one diagonal (equal node
 * offset minus read offset), s2's read offset lies in [E.readBegin,
 * E.readEnd), and E has no mismatch between the two read offsets.  Each of
 * s2's walks then reaches a DFS state identical to one of s1's — same node,
 * the node's full GBWT range, same mismatch budget left — with every score
 * shifted by a constant, so it finds the same best prefix (DESIGN.md §3i).
 * Returns the first covering anchor of `anchors`; a linear scan, kept as
 * the rule's plain statement (the mapper asks an AnchorIndex).
 */
const ExtensionAnchor*
coveringAnchor(const Seed& seed, const std::vector<ExtensionAnchor>& anchors,
               const std::vector<GaplessExtension>& candidates);

/**
 * One read's anchors, hashed on (oriented node, read orientation, diagonal)
 * so that a seed's covering check visits only anchors it could match
 * instead of all of them.  covering() returns what coveringAnchor returns
 * for the same anchors added in the same order.  Chains keep insertion
 * order; clear() resets only the buckets the read used.
 */
class AnchorIndex
{
  public:
    /** Buckets (a power of two).  A read may hold more anchors than this;
     *  its chains then grow longer. */
    static constexpr size_t kBuckets = 64;

    AnchorIndex() { heads_.fill(kNone); }

    /** The bucket of a (node, orientation, diagonal) key. */
    static size_t bucket(graph::Handle handle, bool on_reverse_read,
                         int64_t diagonal);

    /** Drop every anchor: O(anchors), capacity kept. */
    void clear();

    void add(const ExtensionAnchor& anchor);

    /** The earliest-added anchor covering `seed` (see coveringAnchor). */
    const ExtensionAnchor*
    covering(const Seed& seed,
             const std::vector<GaplessExtension>& candidates) const;

    const std::vector<ExtensionAnchor>& anchors() const { return anchors_; }

  private:
    static constexpr uint32_t kNone = UINT32_MAX;

    std::vector<ExtensionAnchor> anchors_;
    std::vector<uint32_t> next_; // next anchor in the same bucket
    std::array<uint32_t, kBuckets> heads_;
    std::array<uint32_t, kBuckets> tails_{};
};

/**
 * Per-worker-thread mutable state plus optional instrumentation handles.
 *
 * The CachedGBWT starts fresh for every read (freshCache()), mirroring
 * Giraffe's extender, which constructs a CachedGBWT per mapping task.
 * This short lifetime is what makes the *initial capacity* a meaningful
 * tuning parameter (Section VII-B): a table far larger than one read's
 * working set pays locality costs on every read, while a tiny one rehashes
 * repeatedly.  With the epoch-stamped cache, "fresh" is an O(1) generation
 * bump — the slot array, decoded-record storage, and every scratch buffer
 * below are reused, so steady-state mapping allocates nothing per read.
 */
class MapperState
{
  public:
    MapperState(const gbwt::Gbwt& gbwt, size_t cache_capacity,
                util::MemTracer* tracer = nullptr)
        : tracer(tracer), cache_(gbwt, cache_capacity, tracer)
    {
        extendScratch.budget = &budget;
    }

    /** The current read's decode cache. */
    gbwt::CachedGbwt& cache() { return cache_; }

    /** Start a new read: reset the cache (O(1)); mapFromSeeds adds the
     *  read's cache statistics to the tally when the read ends. */
    void freshCache() { cache_.clear(); }

    /** Cache statistics over all reads so far. */
    gbwt::CacheStats totalStats() const { return tally.cache(); }

    /**
     * Wire this worker's telemetry sinks to slot `worker` of the hub: its
     * metrics slab, the map metric ids and its flight-recorder ring.
     * No-op for a null hub.
     */
    void
    attachHub(obs::Hub* hub, size_t worker)
    {
        if (hub == nullptr) {
            return;
        }
        metrics = hub->slab(worker);
        metricIds = &hub->map();
        flight = hub->flight().ring(worker);
    }

    /**
     * Publish what the tally counted since the last flush to the metrics
     * slab.  No-op when telemetry is off.  A batch rollback restores a
     * tally copied after the last flush, so the difference is always the
     * completed work since then.
     */
    void
    flushMetrics()
    {
        if (metrics == nullptr || metricIds == nullptr) {
            return;
        }
        const Tally delta = tally.since(flushed_);
        for (size_t c = 0; c < obs::kMapCounts; ++c) {
            metrics->add(metricIds->counts[c], delta.counts[c]);
        }
        metrics->mergeHistogram(metricIds->readLatency, delta.latency);
        flushed_ = tally;
    }

    /**
     * The one instrumentation hook: times one pipeline stage from
     * construction to destruction into every sink attached to the state —
     * the region log, the request stage accumulator and (at entry, for
     * the stages it tracks) the flight ring.  Each edge reads the clock
     * once, so all sinks see the same interval; with no sink attached it
     * reads none.
     */
    class StageScope
    {
      public:
        StageScope(MapperState& state, perf::Stage stage)
            : state_(state), stage_(stage),
              timed_(state.log != nullptr || state.stageTrace != nullptr)
        {
            const obs::ReadStage flight = obs::flightStage(stage);
            const bool track =
                state.flight != nullptr && flight != obs::ReadStage::Idle;
            if (timed_ || track) {
                start_ = util::nowNanos();
            }
            if (track) {
                state.flight->stage(flight, start_);
            }
        }

        StageScope(const StageScope&) = delete;
        StageScope& operator=(const StageScope&) = delete;

        ~StageScope()
        {
            if (!timed_) {
                return;
            }
            const uint64_t end = util::nowNanos();
            if (state_.log != nullptr) {
                state_.log->add(stage_, start_, end);
            }
            if (state_.stageTrace != nullptr) {
                state_.stageTrace->add(stage_, end - start_);
            }
        }

      private:
        MapperState& state_;
        perf::Stage stage_;
        bool timed_;
        uint64_t start_ = 0;
    };

    /** Time `stage` until the returned scope ends (see StageScope). */
    StageScope stage(perf::Stage stage) { return StageScope(*this, stage); }

    util::MemTracer* tracer = nullptr;
    /** Region instrumentation (null when profiling is off). */
    perf::Profiler::ThreadLog* log = nullptr;

    /** Live-metrics sinks (all null when telemetry is off). */
    obs::Registry::ThreadSlab* metrics = nullptr;
    const obs::MapMetricIds* metricIds = nullptr;
    /** Flight-recorder ring for this worker (null when off). */
    obs::FlightRecorder::Ring* flight = nullptr;
    /**
     * Per-request stage-time accumulator for traced requests (null when
     * the request is untraced).  The stage hook adds the wall time of
     * each pipeline stage here; timing-only, so a traced request's GAF
     * stays byte-identical to an untraced one.
     */
    obs::StageAccumulator* stageTrace = nullptr;
    /**
     * Input index of the read being mapped (giraffe::mapRange sets it per
     * read, mate rescue per target).  The "map.read" fault point keys on
     * it, so a fault hits the same reads at any thread count.
     */
    uint64_t readIndex = 0;

    /**
     * Per-read work budget (deadline + step/lookup caps + cancel token).
     * Inactive unless configure()d; wired into extendScratch at
     * construction so the extension kernel charges it.
     */
    resilience::ReadBudget budget;
    /**
     * Every per-read count and the read-latency histogram of this worker.
     * A copy is a snapshot: a batch attempt that fails restores the copy
     * taken before it, so its partial work counts nowhere.
     */
    Tally tally;

    /** Extension-kernel buffers reused across seeds and reads. */
    ExtendScratch extendScratch;
    /** The current read's seeds (Mapper::mapRead, mate rescue). */
    SeedVector seeds;
    /** Cluster-processing buffers reused across clusters and reads. */
    std::vector<Cluster> clusters;
    std::vector<uint32_t> sortedSeeds;
    std::vector<uint32_t> chosenSeeds;
    /** This read's uncut extensions that may cover later seeds. */
    AnchorIndex anchors;
    std::string reverseSeq;
    /**
     * Candidate extensions before dedup/trim.  A read can produce an order
     * of magnitude more candidates than the maxExtensions it returns;
     * accumulating them here keeps that churn in warm capacity and the
     * returned MapResult allocates only for its final trimmed set.
     */
    std::vector<GaplessExtension> extensionBuffer;
    /** Candidate indices the dedup sorts in place of the candidates. */
    std::vector<uint32_t> candidateOrder;

  private:
    gbwt::CachedGbwt cache_;
    /** The tally as of the last flushMetrics(). */
    Tally flushed_;
};

/**
 * Immutable mapping engine over one graph + indexes.  Thread-safe: all
 * mutation lives in MapperState.
 */
class Mapper
{
  public:
    Mapper(const graph::VariationGraph& graph, const gbwt::Gbwt& gbwt,
           const index::MinimizerIndex& minimizers,
           const index::DistanceIndex& distance, MapperParams params);

    const MapperParams& params() const { return params_; }
    const graph::VariationGraph& graph() const { return graph_; }
    const gbwt::Gbwt& gbwt() const { return gbwt_; }

    /** Fresh per-thread state bound to this mapper's GBWT. */
    std::unique_ptr<MapperState>
    makeState(util::MemTracer* tracer = nullptr) const
    {
        return std::make_unique<MapperState>(gbwt_,
                                             params_.gbwtCacheCapacity,
                                             tracer);
    }

    /** Full pipeline: seed, cluster, extend.  (Parent emulator path.) */
    MapResult mapRead(const Read& read, MapperState& state) const;

    /**
     * Critical-functions-only pipeline from precomputed seeds (the proxy
     * path: miniGiraffe's inputs are reads plus their seeds).
     */
    MapResult mapFromSeeds(const Read& read, const SeedVector& seeds,
                           MapperState& state) const;

  private:
    /**
     * The paper's process_until_threshold_c over scored clusters.  Chosen
     * seeds extend one at a time; a seed that an earlier seed's uncut
     * extension covers (AnchorIndex::covering) is counted in
     * extensionsCovered and not walked, because extending it would return
     * that extension.
     */
    void processUntilThresholdC(const Read& read, const SeedVector& seeds,
                                const std::vector<Cluster>& clusters,
                                MapperState& state, MapResult& result) const;

    const graph::VariationGraph& graph_;
    const gbwt::Gbwt& gbwt_;
    const index::MinimizerIndex& minimizers_;
    const index::DistanceIndex& distance_;
    MapperParams params_;
    Extender extender_;
};

} // namespace mg::map
