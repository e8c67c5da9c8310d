/**
 * GBWT correctness tests.  The central oracle: a SearchState extended along
 * any sequence of handles must count exactly the haplotype walks (in the
 * indexed orientation) containing that handle subsequence as a contiguous
 * run, which we verify by brute-force path replay.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "gbwt/gbwt.h"
#include "graph/handle.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/mgz.h"
#include "sim/pangenome_gen.h"
#include "test_paths.h"
#include "util/rng.h"
#include "util/cursor.h"
#include "util/varint.h"

namespace mg::gbwt {
namespace {

using graph::Handle;

/** All oriented walks a builder would index for the given forward walks. */
std::vector<std::vector<Handle>>
orientedWalks(const std::vector<std::vector<Handle>>& forward)
{
    std::vector<std::vector<Handle>> out;
    for (const auto& walk : forward) {
        out.push_back(walk);
        std::vector<Handle> reverse;
        for (auto it = walk.rbegin(); it != walk.rend(); ++it) {
            reverse.push_back(it->flip());
        }
        out.push_back(reverse);
    }
    return out;
}

/** Brute force: number of occurrences of `pattern` across oriented walks. */
uint64_t
countOccurrences(const std::vector<std::vector<Handle>>& oriented,
                 const std::vector<Handle>& pattern)
{
    uint64_t count = 0;
    for (const auto& walk : oriented) {
        if (walk.size() < pattern.size()) {
            continue;
        }
        for (size_t start = 0; start + pattern.size() <= walk.size();
             ++start) {
            bool match = true;
            for (size_t i = 0; i < pattern.size(); ++i) {
                if (walk[start + i] != pattern[i]) {
                    match = false;
                    break;
                }
            }
            if (match) {
                ++count;
            }
        }
    }
    return count;
}

/** Follow a pattern through the index, returning the final state. */
SearchState
followPattern(const Gbwt& gbwt, const std::vector<Handle>& pattern)
{
    SearchState state = gbwt.find(pattern.front());
    for (size_t i = 1; i < pattern.size() && !state.empty(); ++i) {
        state = gbwt.extend(state, pattern[i]);
    }
    return state;
}

TEST(GbwtTest, EmptyBuilderYieldsEmptyIndex)
{
    Gbwt gbwt = GbwtBuilder().build();
    EXPECT_EQ(gbwt.numPaths(), 0u);
    EXPECT_EQ(gbwt.totalVisits(), 0u);
    EXPECT_FALSE(gbwt.hasRecord(Handle(1, false)));
    EXPECT_TRUE(gbwt.find(Handle(1, false)).empty());
}

TEST(GbwtTest, SinglePathCounts)
{
    std::vector<Handle> walk = {Handle(1, false), Handle(2, false),
                                Handle(3, false)};
    GbwtBuilder builder;
    builder.addPath(walk);
    Gbwt gbwt = std::move(builder).build();

    EXPECT_EQ(gbwt.numPaths(), 2u); // forward + reverse
    EXPECT_EQ(gbwt.nodeCount(Handle(1, false)), 1u);
    EXPECT_EQ(gbwt.nodeCount(Handle(1, true)), 1u);
    EXPECT_EQ(gbwt.nodeCount(Handle(2, false)), 1u);
    EXPECT_EQ(gbwt.nodeCount(Handle(4, false)), 0u);

    // Following the path and its reverse both succeed.
    EXPECT_EQ(followPattern(gbwt, walk).size(), 1u);
    std::vector<Handle> reverse = {Handle(3, true), Handle(2, true),
                                   Handle(1, true)};
    EXPECT_EQ(followPattern(gbwt, reverse).size(), 1u);
    // A non-path transition is unsupported.
    std::vector<Handle> wrong = {Handle(1, false), Handle(3, false)};
    EXPECT_TRUE(followPattern(gbwt, wrong).empty());
}

TEST(GbwtTest, SharedBubbleCounts)
{
    // Three haplotypes through a diamond: two take node 2, one takes 3.
    std::vector<std::vector<Handle>> walks = {
        {Handle(1, false), Handle(2, false), Handle(4, false)},
        {Handle(1, false), Handle(2, false), Handle(4, false)},
        {Handle(1, false), Handle(3, false), Handle(4, false)},
    };
    GbwtBuilder builder;
    for (const auto& walk : walks) {
        builder.addPath(walk);
    }
    Gbwt gbwt = std::move(builder).build();

    EXPECT_EQ(gbwt.nodeCount(Handle(1, false)), 3u);
    EXPECT_EQ(gbwt.nodeCount(Handle(2, false)), 2u);
    EXPECT_EQ(gbwt.nodeCount(Handle(3, false)), 1u);

    SearchState at1 = gbwt.find(Handle(1, false));
    EXPECT_EQ(gbwt.extend(at1, Handle(2, false)).size(), 2u);
    EXPECT_EQ(gbwt.extend(at1, Handle(3, false)).size(), 1u);
    EXPECT_TRUE(gbwt.extend(at1, Handle(4, false)).empty());

    // successorStates at node 1 reports both supported branches.
    DecodedRecord rec = gbwt.decodeRecord(Handle(1, false));
    auto succs = rec.successorStates(at1);
    ASSERT_EQ(succs.size(), 2u);
}

TEST(GbwtTest, ExtendMatchesBruteForceOnGeneratedPangenome)
{
    sim::PangenomeParams params;
    params.seed = 77;
    params.backboneLength = 4000;
    params.haplotypes = 6;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);
    auto oriented = orientedWalks(pg.walks);

    util::Rng rng(123);
    // Sample random subpaths of random oriented walks and verify counts.
    for (int trial = 0; trial < 200; ++trial) {
        const auto& walk = oriented[rng.uniform(oriented.size())];
        size_t len = 1 + rng.uniform(std::min<size_t>(8, walk.size()));
        size_t start = rng.uniform(walk.size() - len + 1);
        std::vector<Handle> pattern(walk.begin() + start,
                                    walk.begin() + start + len);
        SearchState state = followPattern(pg.gbwt, pattern);
        EXPECT_EQ(state.size(), countOccurrences(oriented, pattern))
            << "trial " << trial;
    }
}

TEST(GbwtTest, NodeCountsMatchBruteForceEverywhere)
{
    sim::PangenomeParams params;
    params.seed = 78;
    params.backboneLength = 2000;
    params.haplotypes = 5;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);
    auto oriented = orientedWalks(pg.walks);

    for (graph::NodeId id = 1; id <= pg.graph.numNodes(); ++id) {
        for (bool reverse : {false, true}) {
            Handle h(id, reverse);
            EXPECT_EQ(pg.gbwt.nodeCount(h),
                      countOccurrences(oriented, {h}))
                << h.str();
        }
    }
}

TEST(GbwtTest, SuccessorStatesPartitionTheRange)
{
    sim::PangenomeParams params;
    params.seed = 79;
    params.backboneLength = 3000;
    params.haplotypes = 7;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);

    for (graph::NodeId id = 1; id <= pg.graph.numNodes(); ++id) {
        Handle h(id, false);
        DecodedRecord rec = pg.gbwt.decodeRecord(h);
        if (rec.empty()) {
            continue;
        }
        SearchState all(h, 0, rec.numVisits());
        uint64_t successor_total = 0;
        for (const SearchState& succ : rec.successorStates(all)) {
            successor_total += succ.size();
        }
        // Successor states cover all visits except those that end here.
        uint64_t ends = 0;
        uint32_t end_rank = rec.edgeRank(Handle());
        if (end_rank != kNoEdge) {
            ends = rec.countBefore(rec.numVisits(), end_rank);
        }
        EXPECT_EQ(successor_total + ends, rec.numVisits()) << h.str();
    }
}

/**
 * Write `pg` to a container file and map it back: the GBWT's one on-disk
 * form.  The returned pangenome owns the mapping its GBWT is bound to.
 */
io::IndexedPangenome
containerRoundTrip(const sim::GeneratedPangenome& pg, const std::string& name)
{
    index::MinimizerIndex minimizers(pg.graph, index::MinimizerParams());
    index::DistanceIndex distance(pg.graph);
    std::string path = testPath(name);
    io::saveMgz3(path, pg.graph, pg.gbwt, minimizers, distance);
    return io::loadPangenome(path);
}

TEST(GbwtTest, SerializationRoundTrip)
{
    sim::PangenomeParams params;
    params.seed = 80;
    params.backboneLength = 2000;
    params.haplotypes = 4;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);

    io::IndexedPangenome loaded = containerRoundTrip(pg, "gbwt_rt.mgz3");
    const Gbwt& gbwt = loaded.gbwt;
    EXPECT_TRUE(gbwt.isMapped());
    EXPECT_EQ(gbwt.numPaths(), pg.gbwt.numPaths());
    EXPECT_EQ(gbwt.totalVisits(), pg.gbwt.totalVisits());
    EXPECT_EQ(gbwt.compressedBytes(), pg.gbwt.compressedBytes());
    // Spot-check queries agree.
    for (graph::NodeId id = 1; id <= pg.graph.numNodes(); ++id) {
        Handle h(id, false);
        EXPECT_EQ(gbwt.nodeCount(h), pg.gbwt.nodeCount(h));
    }
}

TEST(GbwtTest, CompressionIsEffective)
{
    sim::PangenomeParams params;
    params.seed = 81;
    params.backboneLength = 20000;
    params.haplotypes = 16;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);
    // 32 oriented walks over thousands of visits must compress well below
    // a naive 16-byte-per-visit encoding.
    EXPECT_LT(pg.gbwt.compressedBytes(), pg.gbwt.totalVisits() * 4);
}

TEST(GbwtTest, LocateIdentifiesHaplotypes)
{
    // Three walks: 0/1 take node 2, 2 takes node 3 (oriented path ids are
    // 2*h for forward, 2*h+1 for reverse).
    std::vector<std::vector<Handle>> walks = {
        {Handle(1, false), Handle(2, false), Handle(4, false)},
        {Handle(1, false), Handle(2, false), Handle(4, false)},
        {Handle(1, false), Handle(3, false), Handle(4, false)},
    };
    GbwtBuilder builder;
    for (const auto& walk : walks) {
        builder.addPath(walk);
    }
    Gbwt gbwt = std::move(builder).build();

    auto at1 = gbwt.locate(gbwt.find(Handle(1, false)));
    EXPECT_EQ(at1, (std::vector<uint32_t>{0, 2, 4}));
    auto via2 = gbwt.pathsThrough({Handle(1, false), Handle(2, false)});
    EXPECT_EQ(via2, (std::vector<uint32_t>{0, 2}));
    auto via3 = gbwt.pathsThrough({Handle(1, false), Handle(3, false)});
    EXPECT_EQ(via3, (std::vector<uint32_t>{4}));
    // Reverse orientation reports the reverse path ids.
    auto rev = gbwt.pathsThrough({Handle(4, true), Handle(3, true)});
    EXPECT_EQ(rev, (std::vector<uint32_t>{5}));
    // Unsupported walks locate nothing.
    EXPECT_TRUE(gbwt.pathsThrough({Handle(2, false),
                                   Handle(3, false)}).empty());
    EXPECT_TRUE(gbwt.locate(SearchState()).empty());
}

TEST(GbwtTest, LocateMatchesBruteForceOnGeneratedPangenome)
{
    sim::PangenomeParams params;
    params.seed = 82;
    params.backboneLength = 3000;
    params.haplotypes = 5;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);
    auto oriented = orientedWalks(pg.walks);

    util::Rng rng(83);
    for (int trial = 0; trial < 80; ++trial) {
        const auto& walk = oriented[rng.uniform(oriented.size())];
        size_t len = 1 + rng.uniform(std::min<size_t>(6, walk.size()));
        size_t start = rng.uniform(walk.size() - len + 1);
        std::vector<Handle> pattern(walk.begin() + start,
                                    walk.begin() + start + len);
        // Brute force: which oriented walks contain the pattern?
        std::vector<uint32_t> expected;
        for (uint32_t p = 0; p < oriented.size(); ++p) {
            if (countOccurrences({oriented[p]}, pattern) > 0) {
                expected.push_back(p);
            }
        }
        EXPECT_EQ(pg.gbwt.pathsThrough(pattern), expected)
            << "trial " << trial;
    }
}

TEST(GbwtTest, LocateSurvivesSerialization)
{
    sim::PangenomeParams params;
    params.seed = 84;
    params.backboneLength = 1500;
    params.haplotypes = 3;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);
    io::IndexedPangenome loaded = containerRoundTrip(pg, "gbwt_locate.mgz3");
    for (const auto& walk : pg.walks) {
        std::vector<Handle> prefix(walk.begin(),
                                   walk.begin() +
                                       std::min<size_t>(4, walk.size()));
        EXPECT_EQ(loaded.gbwt.pathsThrough(prefix),
                  pg.gbwt.pathsThrough(prefix));
    }
}

TEST(GbwtBuilderTest, RejectsBadPaths)
{
    GbwtBuilder builder;
    EXPECT_THROW(builder.addPath({}), util::Error);
    EXPECT_THROW(builder.addPath({Handle(1, true)}), util::Error);
    EXPECT_THROW(builder.addPath({Handle()}), util::Error);
}

TEST(RecordTest, EncodeDecodeRoundTrip)
{
    std::vector<RecordEdge> edges;
    edges.push_back(RecordEdge{Handle(), 0});
    edges.push_back(RecordEdge{Handle(5, false), 3});
    edges.push_back(RecordEdge{Handle(9, true), 12});
    std::vector<RecordRun> runs = {
        {1, 4}, {0, 1}, {2, 2}, {1, 1},
    };
    DecodedRecord rec(std::move(edges), std::move(runs), 8);

    util::ByteWriter writer;
    rec.encode(writer);
    util::ByteCursor reader(writer.bytes());
    DecodedRecord back = DecodedRecord::decode(reader);

    EXPECT_EQ(back.numVisits(), 8u);
    EXPECT_EQ(back.edges().size(), 3u);
    EXPECT_EQ(back.edgeRank(Handle(5, false)), 1u);
    EXPECT_EQ(back.edgeRank(Handle(9, true)), 2u);
    EXPECT_EQ(back.edgeRank(Handle(7, false)), kNoEdge);
    EXPECT_EQ(back.countBefore(8, 1), 5u);
    EXPECT_EQ(back.countBefore(4, 1), 4u);
    EXPECT_EQ(back.countBefore(5, 0), 1u);
}

} // namespace
} // namespace mg::gbwt
