#include "map/mapper.h"

#include <algorithm>
#include <numeric>

#include "fault/fault.h"
#include "util/common.h"
#include "util/dna.h"
#include "util/timer.h"

namespace mg::map {

namespace {

/** Whether `anchor` covers `seed`, whose diagonal is `diagonal`. */
bool
covers(const ExtensionAnchor& anchor, const Seed& seed, int64_t diagonal,
       const std::vector<GaplessExtension>& candidates)
{
    if (anchor.handle != seed.position.handle ||
        anchor.onReverseRead != seed.onReverseRead ||
        anchor.diagonal != diagonal) {
        return false;
    }
    const GaplessExtension& ext = candidates[anchor.candidate];
    if (seed.readOffset < ext.readBegin || seed.readOffset >= ext.readEnd) {
        return false;
    }
    const uint32_t lo = std::min(anchor.readOffset, seed.readOffset);
    const uint32_t hi = std::max(anchor.readOffset, seed.readOffset);
    return std::none_of(ext.mismatchOffsets.begin(), ext.mismatchOffsets.end(),
                        [&](uint32_t off) { return off >= lo && off < hi; });
}

int64_t
diagonalOf(const Seed& seed)
{
    return static_cast<int64_t>(seed.position.offset) -
           static_cast<int64_t>(seed.readOffset);
}

} // namespace

const ExtensionAnchor*
coveringAnchor(const Seed& seed, const std::vector<ExtensionAnchor>& anchors,
               const std::vector<GaplessExtension>& candidates)
{
    const int64_t diagonal = diagonalOf(seed);
    for (const ExtensionAnchor& anchor : anchors) {
        if (covers(anchor, seed, diagonal, candidates)) {
            return &anchor;
        }
    }
    return nullptr;
}

size_t
AnchorIndex::bucket(graph::Handle handle, bool on_reverse_read,
                    int64_t diagonal)
{
    const uint64_t key =
        (handle.packed() << 1 | (on_reverse_read ? 1 : 0)) ^
        static_cast<uint64_t>(diagonal) * 0x9e3779b97f4a7c15ull;
    return util::hash64(key) & (kBuckets - 1);
}

void
AnchorIndex::clear()
{
    for (const ExtensionAnchor& anchor : anchors_) {
        heads_[bucket(anchor.handle, anchor.onReverseRead, anchor.diagonal)] =
            kNone;
    }
    anchors_.clear();
    next_.clear();
}

void
AnchorIndex::add(const ExtensionAnchor& anchor)
{
    const uint32_t index = static_cast<uint32_t>(anchors_.size());
    anchors_.push_back(anchor);
    next_.push_back(kNone);
    const size_t b =
        bucket(anchor.handle, anchor.onReverseRead, anchor.diagonal);
    if (heads_[b] == kNone) {
        heads_[b] = index;
    } else {
        next_[tails_[b]] = index;
    }
    tails_[b] = index;
}

const ExtensionAnchor*
AnchorIndex::covering(const Seed& seed,
                      const std::vector<GaplessExtension>& candidates) const
{
    const int64_t diagonal = diagonalOf(seed);
    for (uint32_t i = heads_[bucket(seed.position.handle, seed.onReverseRead,
                                    diagonal)];
         i != kNone; i = next_[i]) {
        if (covers(anchors_[i], seed, diagonal, candidates)) {
            return &anchors_[i];
        }
    }
    return nullptr;
}

Mapper::Mapper(const graph::VariationGraph& graph, const gbwt::Gbwt& gbwt,
               const index::MinimizerIndex& minimizers,
               const index::DistanceIndex& distance, MapperParams params)
    : graph_(graph), gbwt_(gbwt), minimizers_(minimizers),
      distance_(distance), params_(params), extender_(graph, params.extend)
{}

MapResult
Mapper::mapRead(const Read& read, MapperState& state) const
{
    {
        const auto scope = state.stage(perf::Stage::FindSeeds);
        findSeedsInto(minimizers_, read, params_.seeding, state.seeds,
                      state.tracer);
    }
    return mapFromSeeds(read, state.seeds, state);
}

MapResult
Mapper::mapFromSeeds(const Read& read, const SeedVector& seeds,
                     MapperState& state) const
{
    // Fault point: a single read poisoning its mapping task, keyed on the
    // read's input index so the same reads fail at any thread count.
    fault::injectAt("map.read", state.readIndex);

    const uint64_t start_nanos = util::nowNanos();
    MapResult result;
    // Fresh per-read CachedGBWT, as Giraffe's extender constructs one per
    // mapping task; its initialization is part of the read's cost.
    state.freshCache();
    state.budget.beginRead();
    // The packed-query cache keys on (pointer, length); reverseSeq is a
    // reused buffer, so a new read can alias the previous read's key with
    // different contents.  Force a repack on first use.
    state.extendScratch.query.invalidate();
    std::vector<Cluster>& clusters = state.clusters;
    {
        const auto scope = state.stage(perf::Stage::ClusterSeeds);
        clusterSeedsInto(graph_, distance_, seeds, params_.cluster,
                         clusters, state.tracer);
    }
    result.clustersFormed = static_cast<uint32_t>(clusters.size());
    {
        const auto scope = state.stage(perf::Stage::ProcessUntilThresholdC);
        processUntilThresholdC(read, seeds, clusters, state, result);
    }
    result.degraded = state.budget.reason();

    // The read's one write to the tally.
    Tally& tally = state.tally;
    ++tally[obs::MapCount::Reads];
    tally[obs::MapCount::Seeds] += seeds.size();
    tally[obs::MapCount::ClustersFormed] += result.clustersFormed;
    tally[obs::MapCount::ClustersProcessed] += result.clustersProcessed;
    tally[obs::MapCount::ExtensionsAttempted] += result.extensionsAttempted;
    tally[obs::MapCount::ExtensionsAborted] += result.extensionsAborted;
    tally[obs::MapCount::ExtensionsPrefiltered] += result.extensionsPrefiltered;
    tally[obs::MapCount::ExtensionsCovered] += result.extensionsCovered;
    tally[obs::MapCount::ExtensionsEmitted] += result.extensions.size();
    tally.countDegraded(result.degraded);
    tally.addCache(state.cache().stats());
    tally.latency.record(util::nowNanos() - start_nanos);
    return result;
}

void
Mapper::processUntilThresholdC(const Read& read, const SeedVector& seeds,
                               const std::vector<Cluster>& clusters,
                               MapperState& state, MapResult& result) const
{
    if (clusters.empty()) {
        return;
    }
    const double best_score = clusters.front().score;
    const double cutoff = best_score * params_.clusterScoreFraction;
    std::vector<GaplessExtension>& candidates = state.extensionBuffer;
    candidates.clear();
    AnchorIndex& anchors = state.anchors;
    anchors.clear();
    // The reverse complement is computed once per read into the state's
    // reusable buffer; both orientations' extensions compare against their
    // own oriented sequence.
    bool reverse_ready = false;

    for (size_t c = 0; c < clusters.size(); ++c) {
        const Cluster& cluster = clusters[c];
        // process_until_threshold_c: floor of minClusters, ceiling of
        // maxClusters, and a relative score cutoff in between.
        if (c >= params_.maxClusters) {
            break;
        }
        if (c >= params_.minClusters && cluster.score < cutoff) {
            break;
        }
        // Cancellation point between clusters: a degraded read keeps the
        // extensions it already produced and skips the rest.
        if (state.budget.exhausted()) {
            break;
        }
        ++result.clustersProcessed;

        std::string_view oriented = read.sequence;
        if (cluster.onReverseRead) {
            if (!reverse_ready) {
                util::reverseComplementInto(read.sequence,
                                            state.reverseSeq);
                reverse_ready = true;
            }
            oriented = state.reverseSeq;
        }

        // Pick the strongest seeds of the cluster, one per read offset.
        // Both index buffers live in MapperState and keep their capacity
        // across clusters and reads.
        std::vector<uint32_t>& chosen = state.chosenSeeds;
        chosen.clear();
        {
            std::vector<uint32_t>& sorted = state.sortedSeeds;
            sorted.assign(cluster.seedIndices.begin(),
                          cluster.seedIndices.end());
            std::sort(sorted.begin(), sorted.end(),
                      [&](uint32_t a, uint32_t b) {
                          if (seeds[a].score != seeds[b].score) {
                              return seeds[a].score > seeds[b].score;
                          }
                          return a < b;
                      });
            uint32_t last_offset = UINT32_MAX;
            for (uint32_t idx : sorted) {
                if (seeds[idx].readOffset == last_offset) {
                    continue;
                }
                chosen.push_back(idx);
                last_offset = seeds[idx].readOffset;
                if (chosen.size() >= params_.maxSeedsPerCluster) {
                    break;
                }
            }
        }

        // Score prefilter: chosen is sorted best-first, so a single scan
        // from the back trims the hopeless tail before any walk starts.
        if (params_.prefilterFraction > 0.0 && !chosen.empty()) {
            const double floor =
                seeds[chosen.front()].score * params_.prefilterFraction;
            while (!chosen.empty() &&
                   seeds[chosen.back()].score < floor) {
                chosen.pop_back();
                ++result.extensionsPrefiltered;
            }
        }

        const auto scope = state.stage(perf::Stage::Extend);
        // Seeds extend one after another, so every extension an earlier
        // seed produced is known before the next seed is chosen to walk.
        for (uint32_t idx : chosen) {
            // Cancellation point between seeds of a cluster.
            if (state.budget.exhausted()) {
                break;
            }
            const Seed& seed = seeds[idx];
            // A covered seed would reproduce an extension already in
            // candidates, which the dedup below would drop anyway.
            if (anchors.covering(seed, candidates) != nullptr) {
                ++result.extensionsCovered;
                continue;
            }
            ++result.extensionsAttempted;
            GaplessExtension ext = extender_.extendSeed(
                seed, oriented, state.cache(), state.extendScratch);
            // An extension that left the budget exhausted was (at least
            // potentially) trimmed at a cancellation point mid-walk.
            if (state.budget.exhausted()) {
                ++result.extensionsAborted;
            }
            if (ext.readEnd > ext.readBegin) {
                if (!state.extendScratch.walkCut) {
                    anchors.add(ExtensionAnchor::at(
                        seed, static_cast<uint32_t>(candidates.size())));
                }
                candidates.push_back(std::move(ext));
            }
        }
    }

    // Deduplicate identical extensions found from different seeds, keep
    // the best-scoring ones, deterministic order.  Candidates are large, so
    // the sort permutes their indices and only the survivors are moved
    // into the returned result.  operator< orders every pair that
    // operator== tells apart, so equal candidates are identical and the
    // survivors match a sort of the candidates themselves.
    std::vector<uint32_t>& order = state.candidateOrder;
    order.resize(candidates.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
        return candidates[a] < candidates[b];
    });
    order.erase(std::unique(order.begin(), order.end(),
                            [&](uint32_t a, uint32_t b) {
                                return candidates[a] == candidates[b];
                            }),
                order.end());
    if (order.size() > params_.maxExtensions) {
        order.resize(params_.maxExtensions);
    }
    result.extensions.reserve(order.size());
    for (uint32_t i : order) {
        result.extensions.push_back(std::move(candidates[i]));
    }
}

} // namespace mg::map
