/**
 * Golden equivalence suite for the hot-path memory overhaul.
 *
 * The optimized extension kernel (SequenceStore span compares, SmallVector
 * walk states, epoch-reset CachedGBWT, scratch reuse) must be *observably
 * identical* to the pre-overhaul implementation.  This file keeps a
 * reference copy of the original per-base algorithm — std::vector walk
 * states, per-base graph.base() calls, a freshly constructed cache per
 * read — and checks, on the A-human and B-yeast input-set analogs, that
 * the production pipeline produces (1) the identical MapResult extension
 * lists and (2) byte-identical GAF output, and that single walks agree
 * from seed positions and from random node/orientation/offset starts.
 * Registered under the `kernel-matrix` ctest label, so the asan/tsan
 * presets run the whole oracle sanitized.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "giraffe/alignment.h"
#include "giraffe/parent.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/gaf.h"
#include "io/reads_bin.h"
#include "map/cluster.h"
#include "map/mapper.h"
#include "sim/input_sets.h"
#include "util/dna.h"
#include "util/rng.h"

namespace mg::map {
namespace {

// --------------------------------------------------------------------
// Reference kernel: the pre-overhaul algorithm, kept verbatim in spirit —
// per-base compares through graph.base(), heap-allocated per-walk vectors,
// allocating successor queries, and a brand-new CachedGbwt per read.

struct RefWalkState
{
    gbwt::SearchState state;
    uint32_t nodeOffset = 0;
    uint32_t queryPos = 0;
    int mismatches = 0;
    int32_t score = 0;
    std::vector<graph::Handle> path;
    std::vector<uint32_t> mismatchOffsets;
    uint32_t bestQueryPos = 0;
    uint32_t bestEndOffset = 0;
    int32_t bestScore = 0;
    size_t bestMismatches = 0;
    size_t bestPathLen = 0;
};

struct RefWalk
{
    uint32_t consumed = 0;
    std::vector<uint32_t> mismatchOffsets;
    std::vector<graph::Handle> path;
    int32_t score = 0;
    uint32_t endOffset = 0;
};

bool
refBetter(const RefWalk& a, const RefWalk& b)
{
    if (a.score != b.score) {
        return a.score > b.score;
    }
    if (a.consumed != b.consumed) {
        return a.consumed > b.consumed;
    }
    if (a.path != b.path) {
        return a.path < b.path;
    }
    return a.mismatchOffsets < b.mismatchOffsets;
}

RefWalk
refWalk(const graph::VariationGraph& graph, const ExtendParams& params,
        graph::Handle start, uint32_t offset, std::string_view query,
        gbwt::CachedGbwt& cache)
{
    RefWalk best;
    if (query.empty()) {
        return best;
    }
    gbwt::SearchState root = cache.find(start);
    if (root.empty()) {
        return best;
    }
    std::vector<RefWalkState> stack;
    {
        RefWalkState init;
        init.state = root;
        init.nodeOffset = offset;
        stack.push_back(std::move(init));
    }
    size_t explored = 0;

    auto finish = [&](const RefWalkState& s) {
        RefWalk candidate;
        candidate.consumed = s.bestQueryPos;
        candidate.score = s.bestScore;
        candidate.endOffset = s.bestEndOffset;
        candidate.mismatchOffsets.assign(
            s.mismatchOffsets.begin(),
            s.mismatchOffsets.begin() + static_cast<long>(s.bestMismatches));
        candidate.path.assign(s.path.begin(),
                              s.path.begin() +
                                  static_cast<long>(s.bestPathLen));
        if (candidate.consumed > 0 && refBetter(candidate, best)) {
            best = std::move(candidate);
        }
    };

    while (!stack.empty()) {
        RefWalkState s = std::move(stack.back());
        stack.pop_back();
        if (++explored > params.maxWalkStates) {
            finish(s);
            break;
        }
        graph::Handle handle = s.state.node;
        uint32_t len = static_cast<uint32_t>(graph.length(handle.id()));
        bool dead = false;
        if (s.nodeOffset < len && s.queryPos < query.size()) {
            s.path.push_back(handle);
        }
        while (s.nodeOffset < len && s.queryPos < query.size()) {
            char graph_base = graph.base(handle, s.nodeOffset);
            if (graph_base == query[s.queryPos]) {
                s.score += params.matchScore;
                ++s.nodeOffset;
                ++s.queryPos;
                if (s.score >= s.bestScore) {
                    s.bestQueryPos = s.queryPos;
                    s.bestEndOffset = s.nodeOffset;
                    s.bestScore = s.score;
                    s.bestMismatches = s.mismatchOffsets.size();
                    s.bestPathLen = s.path.size();
                }
            } else {
                if (s.mismatches + 1 > params.maxMismatches) {
                    dead = true;
                    break;
                }
                ++s.mismatches;
                s.score -= params.mismatchPenalty;
                s.mismatchOffsets.push_back(s.queryPos);
                ++s.nodeOffset;
                ++s.queryPos;
            }
        }
        if (dead || s.queryPos >= query.size()) {
            finish(s);
            continue;
        }
        std::vector<gbwt::SearchState> successors;
        if (params.haplotypeConsistent) {
            successors = cache.successorStates(s.state);
        } else {
            for (graph::Handle succ : graph.successors(handle)) {
                successors.emplace_back(succ, 0, 1);
            }
        }
        if (successors.empty()) {
            finish(s);
            continue;
        }
        std::sort(successors.begin(), successors.end(),
                  [](const gbwt::SearchState& a, const gbwt::SearchState& b) {
                      return b.node < a.node;
                  });
        for (gbwt::SearchState& succ : successors) {
            RefWalkState next = s; // full copy, as the original did
            next.state = succ;
            next.nodeOffset = 0;
            stack.push_back(std::move(next));
        }
    }
    return best;
}

GaplessExtension
refExtendSeed(const graph::VariationGraph& graph,
              const ExtendParams& params, const Seed& seed,
              std::string_view sequence, gbwt::CachedGbwt& cache)
{
    const graph::Position& pos = seed.position;
    const uint32_t read_offset = seed.readOffset;
    const uint32_t node_len =
        static_cast<uint32_t>(graph.length(pos.handle.id()));

    RefWalk right = refWalk(graph, params, pos.handle, pos.offset,
                            sequence.substr(read_offset), cache);
    std::string left_query =
        util::reverseComplement(sequence.substr(0, read_offset));
    RefWalk left = refWalk(graph, params, pos.handle.flip(),
                           node_len - pos.offset, left_query, cache);

    GaplessExtension ext;
    ext.onReverseRead = seed.onReverseRead;
    ext.readBegin = read_offset - left.consumed;
    ext.readEnd = read_offset + right.consumed;
    ext.score = left.score + right.score;
    for (auto it = left.mismatchOffsets.rbegin();
         it != left.mismatchOffsets.rend(); ++it) {
        ext.mismatchOffsets.push_back(read_offset - 1 - *it);
    }
    for (uint32_t off : right.mismatchOffsets) {
        ext.mismatchOffsets.push_back(read_offset + off);
    }
    for (auto it = left.path.rbegin(); it != left.path.rend(); ++it) {
        ext.path.push_back(it->flip());
    }
    if (!ext.path.empty() && !right.path.empty() &&
        ext.path.back() == right.path.front()) {
        ext.path.pop_back();
    }
    ext.path.insert(ext.path.end(), right.path.begin(), right.path.end());
    if (left.consumed > 0) {
        graph::Handle first = ext.path.front();
        uint32_t first_len =
            static_cast<uint32_t>(graph.length(first.id()));
        ext.startOffset = first_len - left.endOffset;
    } else {
        ext.startOffset = pos.offset;
    }
    if (ext.readBegin == 0 && ext.readEnd == sequence.size()) {
        ext.fullLength = true;
        ext.score += params.fullLengthBonus;
    }
    return ext;
}

/** The pre-overhaul mapFromSeeds: fresh cache object, per-cluster vectors,
 *  per-read reverse complement string — the original control flow. */
MapResult
refMapFromSeeds(const graph::VariationGraph& graph, const gbwt::Gbwt& gbwt,
                const index::DistanceIndex& distance,
                const MapperParams& params, const Read& read,
                const SeedVector& seeds)
{
    MapResult result;
    gbwt::CachedGbwt cache(gbwt, params.gbwtCacheCapacity);
    std::vector<Cluster> clusters =
        clusterSeeds(graph, distance, seeds, params.cluster);
    result.clustersFormed = static_cast<uint32_t>(clusters.size());
    if (clusters.empty()) {
        return result;
    }
    const double best_score = clusters.front().score;
    const double cutoff = best_score * params.clusterScoreFraction;
    std::string reverse_seq;
    bool reverse_ready = false;
    for (size_t c = 0; c < clusters.size(); ++c) {
        const Cluster& cluster = clusters[c];
        if (c >= params.maxClusters) {
            break;
        }
        if (c >= params.minClusters && cluster.score < cutoff) {
            break;
        }
        ++result.clustersProcessed;
        std::string_view oriented = read.sequence;
        if (cluster.onReverseRead) {
            if (!reverse_ready) {
                reverse_seq = util::reverseComplement(read.sequence);
                reverse_ready = true;
            }
            oriented = reverse_seq;
        }
        std::vector<uint32_t> chosen;
        {
            std::vector<uint32_t> sorted;
            for (uint32_t idx : cluster.seedIndices) {
                sorted.push_back(idx);
            }
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
                if (chosen.size() >= params.maxSeedsPerCluster) {
                    break;
                }
            }
        }
        for (uint32_t idx : chosen) {
            GaplessExtension ext = refExtendSeed(graph, params.extend,
                                                 seeds[idx], oriented,
                                                 cache);
            if (ext.readEnd > ext.readBegin) {
                result.extensions.push_back(std::move(ext));
            }
        }
    }
    std::sort(result.extensions.begin(), result.extensions.end());
    result.extensions.erase(
        std::unique(result.extensions.begin(), result.extensions.end()),
        result.extensions.end());
    if (result.extensions.size() > params.maxExtensions) {
        result.extensions.resize(params.maxExtensions);
    }
    return result;
}

// --------------------------------------------------------------------

struct GoldenWorld
{
    sim::InputSet set;
    index::MinimizerIndex minimizers;
    index::DistanceIndex distance;
    io::SeedCapture capture;
};

GoldenWorld
buildGolden(const std::string& input_set, double scale)
{
    GoldenWorld world;
    world.set = sim::buildInputSet(sim::inputSetSpec(input_set), scale);
    index::MinimizerParams mparams;
    mparams.k = 15;
    mparams.w = 8;
    world.minimizers =
        index::MinimizerIndex(world.set.pangenome.graph, mparams);
    world.distance = index::DistanceIndex(world.set.pangenome.graph);
    giraffe::ParentEmulator parent(world.set.pangenome.graph,
                                   world.set.pangenome.gbwt,
                                   world.minimizers, world.distance,
                                   giraffe::ParentParams());
    world.capture = parent.capturePreprocessing(world.set.reads);
    return world;
}

/** Full-fidelity comparison: operator== ignores score/fullLength, so also
 *  compare the canonical textual form, which carries every field. */
void
expectIdentical(const MapResult& got, const MapResult& ref,
                const std::string& read_name)
{
    EXPECT_EQ(got.clustersFormed, ref.clustersFormed) << read_name;
    EXPECT_EQ(got.clustersProcessed, ref.clustersProcessed) << read_name;
    ASSERT_EQ(got.extensions.size(), ref.extensions.size()) << read_name;
    for (size_t i = 0; i < got.extensions.size(); ++i) {
        EXPECT_EQ(got.extensions[i], ref.extensions[i])
            << read_name << " extension " << i;
        EXPECT_EQ(got.extensions[i].str(), ref.extensions[i].str())
            << read_name << " extension " << i;
    }
}

class GoldenKernel : public ::testing::TestWithParam<const char*>
{};

TEST_P(GoldenKernel, MapResultsAndGafMatchPreOverhaulReference)
{
    GoldenWorld world = buildGolden(GetParam(), 0.05);
    const graph::VariationGraph& graph = world.set.pangenome.graph;
    const gbwt::Gbwt& gbwt = world.set.pangenome.gbwt;
    MapperParams params;
    Mapper mapper(graph, gbwt, world.minimizers, world.distance, params);
    auto state = mapper.makeState();

    ASSERT_FALSE(world.capture.entries.empty());
    std::vector<giraffe::Alignment> got_alignments;
    std::vector<giraffe::Alignment> ref_alignments;
    map::ReadSet reads;
    for (const io::ReadWithSeeds& entry : world.capture.entries) {
        // Production kernel with one long-lived state: the epoch-reset
        // cache and reused scratch see many consecutive reads, exactly as
        // the mapping loop drives them.
        MapResult got = mapper.mapFromSeeds(entry.read, entry.seeds,
                                            *state);
        MapResult ref = refMapFromSeeds(graph, gbwt, world.distance,
                                        params, entry.read, entry.seeds);
        expectIdentical(got, ref, entry.read.name);
        got_alignments.push_back(giraffe::postProcess(
            entry.read.name, got.extensions, giraffe::PostProcessParams()));
        ref_alignments.push_back(giraffe::postProcess(
            entry.read.name, ref.extensions, giraffe::PostProcessParams()));
        reads.reads.push_back(entry.read);
    }
    std::string got_gaf = io::formatGaf(got_alignments, reads, graph);
    std::string ref_gaf = io::formatGaf(ref_alignments, reads, graph);
    EXPECT_EQ(got_gaf, ref_gaf) << "GAF output must be byte-identical";
    EXPECT_FALSE(got_gaf.empty());
}

INSTANTIATE_TEST_SUITE_P(InputSets, GoldenKernel,
                         ::testing::Values("A-human", "B-yeast"));

/** The walk itself, state reuse across many calls: sweep seeds through one
 *  Extender+scratch against per-call reference walks. */
TEST(GoldenKernelWalk, WalkMatchesReferenceAcrossOrientations)
{
    GoldenWorld world = buildGolden("B-yeast", 0.02);
    const graph::VariationGraph& graph = world.set.pangenome.graph;
    const gbwt::Gbwt& gbwt = world.set.pangenome.gbwt;
    ExtendParams params;
    Extender extender(graph, params);
    gbwt::CachedGbwt cache(gbwt);
    gbwt::CachedGbwt ref_cache(gbwt);
    ExtendScratch scratch;
    size_t checked = 0;
    for (const io::ReadWithSeeds& entry : world.capture.entries) {
        for (const Seed& seed : entry.seeds) {
            std::string oriented = seed.onReverseRead
                ? util::reverseComplement(entry.read.sequence)
                : entry.read.sequence;
            DirectionalWalk got = extender.walk(
                seed.position.handle, seed.position.offset,
                std::string_view(oriented).substr(seed.readOffset), cache,
                scratch);
            RefWalk ref = refWalk(
                graph, params, seed.position.handle, seed.position.offset,
                std::string_view(oriented).substr(seed.readOffset),
                ref_cache);
            ASSERT_EQ(got.consumed, ref.consumed);
            ASSERT_EQ(got.score, ref.score);
            ASSERT_EQ(got.endOffset, ref.endOffset);
            ASSERT_TRUE(std::equal(got.path.begin(), got.path.end(),
                                   ref.path.begin(), ref.path.end()));
            ASSERT_TRUE(std::equal(got.mismatchOffsets.begin(),
                                   got.mismatchOffsets.end(),
                                   ref.mismatchOffsets.begin(),
                                   ref.mismatchOffsets.end()));
            ++checked;
        }
    }
    EXPECT_GT(checked, 100u);
}

/** The walk from random starts: any node, either orientation, any offset
 *  within the node, against a random read suffix — starts no seed would
 *  produce, including walks that die on their first base. */
TEST(GoldenKernelWalk, RandomStartSweepMatchesReference)
{
    sim::InputSet set =
        sim::buildInputSet(sim::inputSetSpec("B-yeast"), 0.02);
    const graph::VariationGraph& graph = set.pangenome.graph;
    ExtendParams params;
    Extender extender(graph, params);
    gbwt::CachedGbwt cache(set.pangenome.gbwt);
    gbwt::CachedGbwt ref_cache(set.pangenome.gbwt);
    ExtendScratch scratch;

    util::Rng rng(109);
    size_t nontrivial = 0;
    for (int trial = 0; trial < 600; ++trial) {
        graph::NodeId id =
            static_cast<graph::NodeId>(1 + rng.uniform(graph.numNodes()));
        graph::Handle handle(id, rng.chance(0.5));
        uint32_t offset =
            static_cast<uint32_t>(rng.uniform(graph.length(id)));
        const std::string& read =
            set.reads.reads[rng.uniform(set.reads.size())].sequence;
        size_t from = rng.uniform(read.size());
        std::string_view query = std::string_view(read).substr(from);

        DirectionalWalk got =
            extender.walk(handle, offset, query, cache, scratch);
        RefWalk ref = refWalk(graph, params, handle, offset, query,
                              ref_cache);
        ASSERT_EQ(got.consumed, ref.consumed) << "trial " << trial;
        ASSERT_EQ(got.score, ref.score) << "trial " << trial;
        ASSERT_EQ(got.endOffset, ref.endOffset) << "trial " << trial;
        ASSERT_TRUE(std::equal(got.path.begin(), got.path.end(),
                               ref.path.begin(), ref.path.end()))
            << "trial " << trial;
        ASSERT_TRUE(std::equal(got.mismatchOffsets.begin(),
                               got.mismatchOffsets.end(),
                               ref.mismatchOffsets.begin(),
                               ref.mismatchOffsets.end()))
            << "trial " << trial;
        nontrivial += ref.consumed > 0;
    }
    EXPECT_GT(nontrivial, 50u); // the comparison must exercise real walks
}

} // namespace
} // namespace mg::map
