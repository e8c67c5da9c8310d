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
