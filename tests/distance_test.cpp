/** Tests for the distance index, against a brute-force oracle. */
#include <gtest/gtest.h>

#include "index/distance.h"
#include "sim/pangenome_gen.h"
#include "util/rng.h"

namespace mg::index {
namespace {

using graph::Handle;
using graph::Position;

/** 1 -> {2,3} -> 4 diamond with known lengths. */
graph::VariationGraph
diamond()
{
    graph::VariationGraph g;
    g.addNode("ACGTACGT");  // 1, len 8
    g.addNode("TT");        // 2, len 2
    g.addNode("GGGGG");     // 3, len 5
    g.addNode("CCAA");      // 4, len 4
    const std::vector<std::pair<Handle, Handle>> edges{
        {Handle(1, false), Handle(2, false)},
        {Handle(1, false), Handle(3, false)},
        {Handle(2, false), Handle(4, false)},
        {Handle(3, false), Handle(4, false)}};
    g.addEdges(edges);
    return g;
}

TEST(DistanceIndexTest, ChainCoordinatesOnDiamond)
{
    graph::VariationGraph g = diamond();
    DistanceIndex index(g);
    EXPECT_EQ(index.chainCoordinate({Handle(1, false), 0}), 0);
    EXPECT_EQ(index.chainCoordinate({Handle(1, false), 7}), 7);
    EXPECT_EQ(index.chainCoordinate({Handle(2, false), 0}), 8);
    EXPECT_EQ(index.chainCoordinate({Handle(3, false), 0}), 8);
    // Node 4's min prefix goes through the short branch (node 2).
    EXPECT_EQ(index.chainCoordinate({Handle(4, false), 0}), 10);
}

TEST(DistanceIndexTest, MinDistanceWithinNode)
{
    graph::VariationGraph g = diamond();
    DistanceIndex index(g);
    Position a{Handle(1, false), 2};
    Position b{Handle(1, false), 6};
    EXPECT_EQ(index.minDistance(g, a, b, 100), 4);
    EXPECT_EQ(index.minDistance(g, a, a, 100), 0);
    // Backwards within a node is unreachable in a DAG.
    EXPECT_EQ(index.minDistance(g, b, a, 100), kUnreachable);
}

TEST(DistanceIndexTest, MinDistanceAcrossBubble)
{
    graph::VariationGraph g = diamond();
    DistanceIndex index(g);
    Position a{Handle(1, false), 7}; // last base of node 1
    Position b{Handle(4, false), 0}; // first base of node 4
    // Shortest walk goes through node 2 (2 bases): distance 3.
    EXPECT_EQ(index.minDistance(g, a, b, 100), 3);
    // Through node 3 would be 6; cap below 3 makes it unreachable.
    EXPECT_EQ(index.minDistance(g, a, b, 2), kUnreachable);
}

TEST(DistanceIndexTest, UnreachableAcrossBranches)
{
    graph::VariationGraph g = diamond();
    DistanceIndex index(g);
    Position a{Handle(2, false), 0};
    Position b{Handle(3, false), 0};
    EXPECT_EQ(index.minDistance(g, a, b, 1000), kUnreachable);
}

TEST(DistanceIndexTest, EstimateEqualsExactOnChainWalks)
{
    // On a pure chain (single haplotype, no bubbles reachable), the chain
    // coordinate difference equals the exact distance.
    graph::VariationGraph g;
    std::vector<std::pair<Handle, Handle>> edges;
    graph::NodeId prev = 0;
    for (int i = 0; i < 10; ++i) {
        graph::NodeId node = g.addNode("ACGTAC");
        if (prev != 0) {
            edges.emplace_back(Handle(prev, false), Handle(node, false));
        }
        prev = node;
    }
    g.addEdges(edges);
    DistanceIndex index(g);
    Position a{Handle(2, false), 3};
    Position b{Handle(7, false), 1};
    EXPECT_EQ(index.estimatedDistance(a, b),
              index.minDistance(g, a, b, 10000));
}

TEST(DistanceIndexTest, OracleAgreementOnGeneratedPangenome)
{
    sim::PangenomeParams params;
    params.seed = 61;
    params.backboneLength = 3000;
    params.haplotypes = 4;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);
    DistanceIndex index(pg.graph);

    // Sample position pairs along one haplotype walk; the walk-index
    // distance from the walk is an upper bound on the min distance, the
    // estimate must be within one bubble detour of the exact value.
    util::Rng rng(62);
    const auto& walk = pg.walks[0];
    // Walk step start coordinates within the haplotype string.
    std::vector<size_t> starts(walk.size() + 1, 0);
    for (size_t i = 0; i < walk.size(); ++i) {
        starts[i + 1] = starts[i] + pg.graph.length(walk[i].id());
    }
    for (int trial = 0; trial < 100; ++trial) {
        size_t ai = rng.uniform(walk.size() - 1);
        size_t bi = ai + 1 + rng.uniform(std::min<size_t>(
            4, walk.size() - ai - 1));
        Position a{walk[ai],
                   static_cast<uint32_t>(
                       rng.uniform(pg.graph.length(walk[ai].id())))};
        Position b{walk[bi],
                   static_cast<uint32_t>(
                       rng.uniform(pg.graph.length(walk[bi].id())))};
        int64_t walk_distance =
            static_cast<int64_t>(starts[bi] + b.offset) -
            static_cast<int64_t>(starts[ai] + a.offset);
        int64_t exact = index.minDistance(pg.graph, a, b, 1 << 20);
        ASSERT_NE(exact, kUnreachable);
        EXPECT_LE(exact, walk_distance);
        // The chain-coordinate estimate stays within one SV detour.
        int64_t estimate = index.estimatedDistance(a, b);
        EXPECT_LE(std::abs(estimate - exact), 256) << "trial " << trial;
    }
}

TEST(DistanceIndexTest, CoordinatesAreMonotoneAlongWalks)
{
    sim::PangenomeParams params;
    params.seed = 63;
    params.backboneLength = 2000;
    params.haplotypes = 3;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);
    DistanceIndex index(pg.graph);
    for (const auto& walk : pg.walks) {
        int64_t prev = -1;
        for (Handle step : walk) {
            // Non-strict: an insertion branch and the anchor after it share
            // the same min-prefix coordinate.
            int64_t coord = index.chainCoordinate({step, 0});
            EXPECT_GE(coord, prev);
            prev = coord;
        }
    }
}

} // namespace
} // namespace mg::index
