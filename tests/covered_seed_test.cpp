/**
 * Covered-seed rule: the mapper skips a chosen seed when an earlier seed's
 * uncut extension covers it (map::coveringAnchor), on the claim that
 * extending the skipped seed would return exactly that extension.
 *
 * The property suite checks the claim over every seed of every read of the
 * A, B and D analogs: seeds are extended best-first per orientation, anchors
 * registered the way the mapper registers them, and each seed the rule
 * skips is extended anyway on a fresh cache and compared to its covering
 * extension.  Real minimizer seeds on one node rarely straddle a mismatch,
 * so the suite also probes a seed at every offset of each anchor's
 * diagonal within its node.  The unit cases pin where the rule must not
 * fire.
 *
 * The mapper looks covering anchors up in a hashed AnchorIndex; the oracle
 * suite checks it against a copy of the linear scan it replaced, on every
 * chosen seed the mapper meets for every read of all four analogs, and on
 * crafted bucket collisions.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "giraffe/parent.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/reads_bin.h"
#include "map/mapper.h"
#include "sim/input_sets.h"
#include "util/dna.h"
#include "util/rng.h"

namespace mg::map {
namespace {

struct CoverWorld
{
    sim::InputSet set;
    index::MinimizerIndex minimizers;
    index::DistanceIndex distance;
    io::SeedCapture capture;
};

CoverWorld
buildWorld(const std::string& input_set, double scale)
{
    CoverWorld world;
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

class CoveredSeedProperty : public ::testing::TestWithParam<const char*>
{};

TEST_P(CoveredSeedProperty, SkippedSeedsReproduceTheirCoveringExtension)
{
    CoverWorld world = buildWorld(GetParam(), 0.03);
    ASSERT_FALSE(world.capture.entries.empty());
    const graph::VariationGraph& graph = world.set.pangenome.graph;
    const gbwt::Gbwt& gbwt = world.set.pangenome.gbwt;
    Extender extender(graph, MapperParams().extend);
    gbwt::CachedGbwt cache(gbwt);
    ExtendScratch scratch;

    size_t walked = 0;
    size_t covered = 0;
    size_t probed = 0;
    std::string reverse;
    // extendSeed(seed) on a fresh cache must equal its covering extension
    // in every field str() prints (a superset of operator==).
    auto expect_reproduces = [&](const Seed& seed, const std::string& oriented,
                                 const GaplessExtension& cover,
                                 const std::string& where) {
        gbwt::CachedGbwt fresh(gbwt);
        ExtendScratch fresh_scratch;
        const std::string direct =
            extender.extendSeed(seed, oriented, fresh, fresh_scratch).str();
        EXPECT_EQ(direct, cover.str()) << where;
        return direct == cover.str();
    };
    for (const io::ReadWithSeeds& entry : world.capture.entries) {
        const SeedVector& seeds = entry.seeds;
        std::vector<uint32_t> order(seeds.size());
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [&](uint32_t a, uint32_t b) {
                             return seeds[a].score > seeds[b].score;
                         });
        util::reverseComplementInto(entry.read.sequence, reverse);
        cache.clear();
        scratch.query.invalidate();
        std::vector<ExtensionAnchor> anchors;
        std::vector<GaplessExtension> candidates;
        for (uint32_t idx : order) {
            const Seed& seed = seeds[idx];
            const std::string& oriented =
                seed.onReverseRead ? reverse : entry.read.sequence;
            if (const ExtensionAnchor* anchor =
                    coveringAnchor(seed, anchors, candidates)) {
                ++covered;
                ASSERT_TRUE(expect_reproduces(
                    seed, oriented, candidates[anchor->candidate],
                    entry.read.name + " seed " + std::to_string(idx)));
                continue;
            }
            ++walked;
            GaplessExtension ext =
                extender.extendSeed(seed, oriented, cache, scratch);
            if (ext.readEnd > ext.readBegin) {
                if (!scratch.walkCut) {
                    anchors.push_back(ExtensionAnchor::at(
                        seed, static_cast<uint32_t>(candidates.size())));
                }
                candidates.push_back(std::move(ext));
            }
        }
        // Probe seeds at every offset of each anchor's diagonal inside
        // its node, including offsets past a mismatch of its extension.
        const uint32_t read_len =
            static_cast<uint32_t>(entry.read.sequence.size());
        for (const ExtensionAnchor& anchor : anchors) {
            const int64_t node_len =
                static_cast<int64_t>(graph.length(anchor.handle.id()));
            for (int64_t offset = 0; offset < node_len; ++offset) {
                const int64_t read_offset = offset - anchor.diagonal;
                if (read_offset < 0 || read_offset >= read_len) {
                    continue;
                }
                Seed probe;
                probe.position = graph::Position(
                    anchor.handle, static_cast<uint32_t>(offset));
                probe.readOffset = static_cast<uint32_t>(read_offset);
                probe.onReverseRead = anchor.onReverseRead;
                const ExtensionAnchor* cover =
                    coveringAnchor(probe, anchors, candidates);
                if (cover == nullptr) {
                    continue;
                }
                ++probed;
                ASSERT_TRUE(expect_reproduces(
                    probe,
                    probe.onReverseRead ? reverse : entry.read.sequence,
                    candidates[cover->candidate],
                    entry.read.name + " probe " + anchor.handle.str() +
                        ":" + std::to_string(offset)));
            }
        }
    }
    // The rule must actually fire for the property to mean anything.
    EXPECT_GT(covered, walked / 4) << "walked " << walked;
    EXPECT_GT(probed, covered) << "walked " << walked;
}

INSTANTIATE_TEST_SUITE_P(InputSets, CoveredSeedProperty,
                         ::testing::Values("A-human", "B-yeast", "D-HPRC"));

/** One anchor at (node 7, offset 20, read 10) whose extension spans
 *  read [0, 50) with no mismatches. */
struct UnitCase
{
    Seed anchorSeed;
    std::vector<ExtensionAnchor> anchors;
    std::vector<GaplessExtension> candidates;

    UnitCase()
    {
        anchorSeed.position = graph::Position(graph::Handle(7, false), 20);
        anchorSeed.readOffset = 10;
        GaplessExtension ext;
        ext.path.push_back(graph::Handle(7, false));
        ext.readBegin = 0;
        ext.readEnd = 50;
        ext.score = 50;
        candidates.push_back(ext);
        anchors.push_back(ExtensionAnchor::at(anchorSeed, 0));
    }

    /** A seed `shift` bases along the anchor's diagonal. */
    Seed
    along(int shift) const
    {
        Seed seed = anchorSeed;
        seed.position.offset += shift;
        seed.readOffset += shift;
        return seed;
    }

    bool
    covers(const Seed& seed) const
    {
        return coveringAnchor(seed, anchors, candidates) != nullptr;
    }
};

TEST(CoveredSeedRule, FiresOnTheDiagonalInsideTheExtension)
{
    UnitCase unit;
    EXPECT_TRUE(unit.covers(unit.along(3)));
    EXPECT_TRUE(unit.covers(unit.along(-5)));
    EXPECT_TRUE(unit.covers(unit.along(0)));
}

TEST(CoveredSeedRule, MismatchBetweenTheSeedsBlocksIt)
{
    UnitCase unit;
    unit.candidates[0].mismatchOffsets.push_back(11);
    EXPECT_FALSE(unit.covers(unit.along(3))); // mismatch in [10, 13)
    EXPECT_TRUE(unit.covers(unit.along(1)));  // [10, 11) is clean
    unit.candidates[0].mismatchOffsets[0] = 13;
    EXPECT_TRUE(unit.covers(unit.along(3)));  // the seed's own base
    unit.candidates[0].mismatchOffsets[0] = 7;
    EXPECT_FALSE(unit.covers(unit.along(-3))); // [7, 10) holds it
    EXPECT_TRUE(unit.covers(unit.along(-2)));  // [8, 10) is clean
}

TEST(CoveredSeedRule, DifferentNodeOrOrientationBlocksIt)
{
    UnitCase unit;
    Seed other_node = unit.along(2);
    other_node.position.handle = graph::Handle(8, false);
    EXPECT_FALSE(unit.covers(other_node));
    Seed flipped_node = unit.along(2);
    flipped_node.position.handle = unit.anchorSeed.position.handle.flip();
    EXPECT_FALSE(unit.covers(flipped_node));
    Seed other_strand = unit.along(2);
    other_strand.onReverseRead = true;
    EXPECT_FALSE(unit.covers(other_strand));
}

TEST(CoveredSeedRule, OffDiagonalOrOutsideTheExtensionBlocksIt)
{
    UnitCase unit;
    Seed off = unit.along(2);
    off.position.offset += 1;
    EXPECT_FALSE(unit.covers(off));
    EXPECT_FALSE(unit.covers(unit.along(40))); // read offset 50 == readEnd
    EXPECT_TRUE(unit.covers(unit.along(39)));
    EXPECT_TRUE(unit.covers(unit.along(-10))); // read offset 0 == readBegin
}

/** coveringAnchor before the anchor index: a scan over every anchor. */
const ExtensionAnchor*
linearCoveringAnchor(const Seed& seed,
                     const std::vector<ExtensionAnchor>& anchors,
                     const std::vector<GaplessExtension>& candidates)
{
    const int64_t diagonal = static_cast<int64_t>(seed.position.offset) -
                             static_cast<int64_t>(seed.readOffset);
    for (const ExtensionAnchor& anchor : anchors) {
        if (anchor.handle != seed.position.handle ||
            anchor.onReverseRead != seed.onReverseRead ||
            anchor.diagonal != diagonal) {
            continue;
        }
        const GaplessExtension& ext = candidates[anchor.candidate];
        if (seed.readOffset < ext.readBegin ||
            seed.readOffset >= ext.readEnd) {
            continue;
        }
        const uint32_t lo = std::min(anchor.readOffset, seed.readOffset);
        const uint32_t hi = std::max(anchor.readOffset, seed.readOffset);
        if (std::none_of(ext.mismatchOffsets.begin(),
                         ext.mismatchOffsets.end(),
                         [&](uint32_t off) { return off >= lo && off < hi; })) {
            return &anchor;
        }
    }
    return nullptr;
}

/** The index and the linear scan agree on `seed`, down to the anchor. */
bool
sameCover(const AnchorIndex& index,
          const std::vector<GaplessExtension>& candidates, const Seed& seed)
{
    const ExtensionAnchor* got = index.covering(seed, candidates);
    const ExtensionAnchor* want =
        linearCoveringAnchor(seed, index.anchors(), candidates);
    return got == want;
}

class AnchorIndexOracle : public ::testing::TestWithParam<const char*>
{};

/**
 * Replays the mapper's seed choice (clusters in score order under the
 * default thresholds, up to four distinct-offset seeds per cluster) with
 * the linear scan deciding which seeds are covered.  Every decision must
 * match the index, and the replay's per-read covered and attempted counts
 * must match what Mapper::mapFromSeeds reports for the read.
 */
TEST_P(AnchorIndexOracle, MapperDecisionsMatchTheLinearScan)
{
    CoverWorld world = buildWorld(GetParam(), 0.03);
    ASSERT_FALSE(world.capture.entries.empty());
    const graph::VariationGraph& graph = world.set.pangenome.graph;
    const gbwt::Gbwt& gbwt = world.set.pangenome.gbwt;
    const MapperParams params;
    ASSERT_EQ(params.prefilterFraction, 0.0);
    const Mapper mapper(graph, gbwt, world.minimizers, world.distance,
                        params);
    auto state = mapper.makeState();
    Extender extender(graph, params.extend);
    gbwt::CachedGbwt cache(gbwt);
    ExtendScratch scratch;
    AnchorIndex index; // reused across reads, as the mapper's is
    std::vector<Cluster> clusters;
    std::string reverse;

    size_t total_covered = 0;
    size_t total_attempted = 0;
    for (const io::ReadWithSeeds& entry : world.capture.entries) {
        const SeedVector& seeds = entry.seeds;
        const MapResult mapped =
            mapper.mapFromSeeds(entry.read, seeds, *state);

        clusterSeedsInto(graph, world.distance, seeds, params.cluster,
                         clusters);
        util::reverseComplementInto(entry.read.sequence, reverse);
        cache.clear();
        scratch.query.invalidate();
        index.clear();
        std::vector<ExtensionAnchor> linear;
        std::vector<GaplessExtension> candidates;
        uint32_t covered = 0;
        uint32_t attempted = 0;
        const double cutoff =
            clusters.empty() ? 0.0
                             : clusters.front().score *
                                   params.clusterScoreFraction;
        for (size_t c = 0; c < clusters.size(); ++c) {
            const Cluster& cluster = clusters[c];
            if (c >= params.maxClusters ||
                (c >= params.minClusters && cluster.score < cutoff)) {
                break;
            }
            std::vector<uint32_t> sorted(cluster.seedIndices.begin(),
                                         cluster.seedIndices.end());
            std::sort(sorted.begin(), sorted.end(),
                      [&](uint32_t a, uint32_t b) {
                          if (seeds[a].score != seeds[b].score) {
                              return seeds[a].score > seeds[b].score;
                          }
                          return a < b;
                      });
            std::vector<uint32_t> chosen;
            for (uint32_t idx : sorted) {
                if (chosen.empty() ||
                    seeds[idx].readOffset != seeds[chosen.back()].readOffset) {
                    chosen.push_back(idx);
                }
                if (chosen.size() >= params.maxSeedsPerCluster) {
                    break;
                }
            }
            const std::string& oriented =
                cluster.onReverseRead ? reverse : entry.read.sequence;
            for (uint32_t idx : chosen) {
                const Seed& seed = seeds[idx];
                const ExtensionAnchor* want =
                    linearCoveringAnchor(seed, linear, candidates);
                const ExtensionAnchor* got = index.covering(seed, candidates);
                ASSERT_EQ(got == nullptr, want == nullptr)
                    << entry.read.name << " seed " << idx;
                if (want != nullptr) {
                    EXPECT_EQ(got - index.anchors().data(),
                              want - linear.data())
                        << entry.read.name << " seed " << idx;
                    ++covered;
                    continue;
                }
                ++attempted;
                GaplessExtension ext =
                    extender.extendSeed(seed, oriented, cache, scratch);
                if (ext.readEnd > ext.readBegin) {
                    if (!scratch.walkCut) {
                        const ExtensionAnchor anchor = ExtensionAnchor::at(
                            seed, static_cast<uint32_t>(candidates.size()));
                        linear.push_back(anchor);
                        index.add(anchor);
                    }
                    candidates.push_back(std::move(ext));
                }
            }
        }
        EXPECT_EQ(mapped.extensionsCovered, covered) << entry.read.name;
        EXPECT_EQ(mapped.extensionsAttempted, attempted) << entry.read.name;
        total_covered += covered;
        total_attempted += attempted;
    }
    // The rule must fire for the comparison to mean anything.
    EXPECT_GT(total_covered, total_attempted / 8)
        << "attempted " << total_attempted;
}

INSTANTIATE_TEST_SUITE_P(InputSets, AnchorIndexOracle,
                         ::testing::Values("A-human", "B-yeast", "C-HPRC",
                                           "D-HPRC"));

/** A clean extension over read [0, 100) for anchors of crafted tests. */
GaplessExtension
cleanExtension(graph::Handle handle)
{
    GaplessExtension ext;
    ext.path.push_back(handle);
    ext.readBegin = 0;
    ext.readEnd = 100;
    ext.score = 100;
    return ext;
}

Seed
seedAt(graph::Handle handle, int64_t diagonal, uint32_t read_offset,
       bool on_reverse_read)
{
    Seed seed;
    seed.position = graph::Position(
        handle, static_cast<uint32_t>(diagonal + read_offset));
    seed.readOffset = read_offset;
    seed.onReverseRead = on_reverse_read;
    return seed;
}

TEST(AnchorIndex, AnchorsSharingABucket)
{
    const graph::Handle node(7, false);
    const int64_t diagonal = 40;
    const size_t home = AnchorIndex::bucket(node, false, diagonal);
    // Same node, another diagonal, same bucket.
    int64_t other_diagonal = diagonal + 1;
    while (AnchorIndex::bucket(node, false, other_diagonal) != home) {
        ++other_diagonal;
    }
    // Same node and diagonal in both orientations, one bucket.
    int64_t shared = 0;
    while (AnchorIndex::bucket(node, false, shared) !=
           AnchorIndex::bucket(node, true, shared)) {
        ++shared;
    }

    AnchorIndex index;
    std::vector<GaplessExtension> candidates;
    auto add = [&](int64_t diag, uint32_t read_offset, bool reverse) {
        index.add(ExtensionAnchor{node, diag, read_offset, reverse,
                                  static_cast<uint32_t>(candidates.size())});
        candidates.push_back(cleanExtension(node));
    };
    add(diagonal, 10, false);
    add(other_diagonal, 20, false);
    add(shared, 30, false);
    add(shared, 30, true);
    // Head of the chain blocked by a mismatch: a later anchor on the same
    // key must still be found.
    add(diagonal, 60, false);
    candidates[0].mismatchOffsets.push_back(50);

    for (uint32_t offset = 0; offset < 100; ++offset) {
        for (const int64_t diag : {diagonal, other_diagonal, shared}) {
            for (const bool reverse : {false, true}) {
                const Seed seed = seedAt(node, diag, offset, reverse);
                EXPECT_TRUE(sameCover(index, candidates, seed))
                    << diag << " " << offset << " " << reverse;
            }
        }
    }
    const Seed past = seedAt(node, diagonal, 55, false);
    ASSERT_NE(index.covering(past, candidates), nullptr);
    EXPECT_EQ(index.covering(past, candidates)->readOffset, 60u);
    EXPECT_EQ(index.covering(seedAt(node, other_diagonal, 5, true),
                             candidates),
              nullptr);
    EXPECT_EQ(index.covering(seedAt(node, shared, 5, true), candidates)
                  ->onReverseRead,
              true);
}

TEST(AnchorIndex, MoreAnchorsThanBuckets)
{
    util::Rng rng(26);
    AnchorIndex index;
    std::vector<GaplessExtension> candidates;
    std::vector<Seed> probes;
    auto fill = [&](size_t count) {
        for (size_t i = 0; i < count; ++i) {
            const graph::Handle node(1 + rng.uniform(6), rng.chance(0.5));
            const int64_t diagonal = rng.uniformInt(-8, 8);
            const bool reverse = rng.chance(0.5);
            // Read offsets from 8 keep every seed's node offset >= 0.
            const uint32_t read_offset =
                static_cast<uint32_t>(8 + rng.uniform(92));
            GaplessExtension ext = cleanExtension(node);
            ext.readBegin = static_cast<uint32_t>(rng.uniform(read_offset + 1));
            ext.readEnd = read_offset + 1 +
                          static_cast<uint32_t>(rng.uniform(100 - read_offset));
            if (rng.chance(0.5)) {
                ext.mismatchOffsets.push_back(static_cast<uint32_t>(
                    ext.readBegin + rng.uniform(ext.length())));
            }
            index.add(ExtensionAnchor{node, diagonal, read_offset, reverse,
                                      static_cast<uint32_t>(candidates.size())});
            candidates.push_back(ext);
            for (int p = 0; p < 4; ++p) {
                probes.push_back(seedAt(
                    node, diagonal, static_cast<uint32_t>(8 + rng.uniform(92)),
                    reverse));
            }
        }
    };
    fill(3 * AnchorIndex::kBuckets + 5);
    ASSERT_GT(index.anchors().size(), AnchorIndex::kBuckets);
    size_t covered = 0;
    for (const Seed& probe : probes) {
        EXPECT_TRUE(sameCover(index, candidates, probe));
        covered += index.covering(probe, candidates) != nullptr;
    }
    EXPECT_GT(covered, probes.size() / 4);
    EXPECT_LT(covered, probes.size());

    // clear() forgets every anchor; the next read's anchors index afresh.
    index.clear();
    for (const Seed& probe : probes) {
        EXPECT_EQ(index.covering(probe, candidates), nullptr);
    }
    candidates.clear();
    probes.clear();
    fill(20);
    for (const Seed& probe : probes) {
        EXPECT_TRUE(sameCover(index, candidates, probe));
    }
}

bool
walkIsCut(const Extender& extender, const Seed& seed,
          const std::string& oriented, const gbwt::Gbwt& gbwt)
{
    gbwt::CachedGbwt cache(gbwt);
    ExtendScratch scratch;
    extender.extendSeed(seed, oriented, cache, scratch);
    return scratch.walkCut;
}

/**
 * A walk cut by maxWalkStates never anchors: find a pair of real seeds
 * that the default mapper maps with one walk (the second covered), then
 * map the same pair with maxWalkStates = 1 — the first seed's walk is now
 * cut, so the second seed must be walked too.
 */
TEST(CoveredSeedRule, CutAnchorNeverCovers)
{
    CoverWorld world = buildWorld("A-human", 0.03);
    const graph::VariationGraph& graph = world.set.pangenome.graph;
    const gbwt::Gbwt& gbwt = world.set.pangenome.gbwt;
    MapperParams full;
    MapperParams capped;
    capped.extend.maxWalkStates = 1;
    Mapper mapper(graph, gbwt, world.minimizers, world.distance, full);
    Mapper cut_mapper(graph, gbwt, world.minimizers, world.distance, capped);
    auto state = mapper.makeState();
    auto cut_state = cut_mapper.makeState();
    const Extender cut_extender(graph, capped.extend);

    size_t pairs = 0;
    for (const io::ReadWithSeeds& entry : world.capture.entries) {
        const SeedVector& seeds = entry.seeds;
        for (size_t i = 0; i < seeds.size() && pairs < 20; ++i) {
            for (size_t j = i + 1; j < seeds.size(); ++j) {
                const Seed& a = seeds[i];
                const Seed& b = seeds[j];
                if (a.position.handle != b.position.handle ||
                    a.onReverseRead != b.onReverseRead ||
                    a.readOffset == b.readOffset ||
                    static_cast<int64_t>(a.position.offset) -
                            a.readOffset !=
                        static_cast<int64_t>(b.position.offset) -
                            b.readOffset) {
                    continue;
                }
                const SeedVector pair{a, b};
                const MapResult mapped =
                    mapper.mapFromSeeds(entry.read, pair, *state);
                if (mapped.extensionsCovered != 1) {
                    continue;
                }
                ASSERT_EQ(mapped.extensionsAttempted, 1u);
                // Whichever seed the mapper walks first, its walk is cut.
                const std::string oriented =
                    a.onReverseRead
                        ? util::reverseComplement(entry.read.sequence)
                        : entry.read.sequence;
                if (!walkIsCut(cut_extender, a, oriented, gbwt) ||
                    !walkIsCut(cut_extender, b, oriented, gbwt)) {
                    continue; // a walk fits in one state; nothing cut
                }
                const MapResult walked =
                    cut_mapper.mapFromSeeds(entry.read, pair, *cut_state);
                EXPECT_EQ(walked.extensionsCovered, 0u) << entry.read.name;
                EXPECT_EQ(walked.extensionsAttempted, 2u) << entry.read.name;
                ++pairs;
                break;
            }
        }
    }
    EXPECT_GT(pairs, 0u) << "no covered seed pair with a cut anchor found";
}

} // namespace
} // namespace mg::map
