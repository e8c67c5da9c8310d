/** Tests for handles and the variation graph. */
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/variation_graph.h"
#include "sim/pangenome_gen.h"
#include "util/common.h"

namespace mg::graph {
namespace {

TEST(HandleTest, PackingRoundTrip)
{
    Handle h(42, true);
    EXPECT_EQ(h.id(), 42u);
    EXPECT_TRUE(h.isReverse());
    EXPECT_EQ(Handle::fromPacked(h.packed()), h);
}

TEST(HandleTest, FlipIsInvolution)
{
    Handle h(7, false);
    EXPECT_EQ(h.flip().flip(), h);
    EXPECT_NE(h.flip(), h);
    EXPECT_EQ(h.flip().id(), h.id());
}

TEST(HandleTest, InvalidHandle)
{
    Handle h;
    EXPECT_FALSE(h.valid());
    EXPECT_TRUE(Handle(1, false).valid());
}

TEST(HandleTest, StringRendering)
{
    EXPECT_EQ(Handle(12, false).str(), "12+");
    EXPECT_EQ(Handle(12, true).str(), "12-");
}

/** Tiny diamond graph used by several fixtures: 1 -> {2,3} -> 4. */
VariationGraph
diamond()
{
    VariationGraph g;
    NodeId a = g.addNode("ACGT");   // 1
    NodeId b = g.addNode("T");      // 2
    NodeId c = g.addNode("G");      // 3
    NodeId d = g.addNode("CCAA");   // 4
    const std::vector<std::pair<Handle, Handle>> edges{
        {Handle(a, false), Handle(b, false)},
        {Handle(a, false), Handle(c, false)},
        {Handle(b, false), Handle(d, false)},
        {Handle(c, false), Handle(d, false)}};
    g.addEdges(edges);
    return g;
}

TEST(VariationGraphTest, BasicCounts)
{
    VariationGraph g = diamond();
    EXPECT_EQ(g.numNodes(), 4u);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_EQ(g.totalSequenceLength(), 10u);
}

TEST(VariationGraphTest, RejectsBadSequences)
{
    VariationGraph g;
    EXPECT_THROW(g.addNode(""), util::Error);
    // Non-letter characters are invalid under the canonicalization policy.
    EXPECT_THROW(g.addNode("AC-T"), util::Error);
    EXPECT_THROW(g.addNode("ACG*"), util::Error);
}

TEST(VariationGraphTest, CanonicalizesAmbiguityLetters)
{
    // Policy (util/dna.h): ambiguity letters -> 'A' with a count; lower
    // case upper-cased without counting.  Both strands reflect the
    // canonical bases.
    VariationGraph g;
    NodeId a = g.addNode("ACGN");
    NodeId b = g.addNode("acgt");
    EXPECT_EQ(g.forwardSequence(a), "ACGA");
    EXPECT_EQ(g.forwardSequence(b), "ACGT");
    EXPECT_EQ(g.sequence(Handle(a, true)), "TCGT");
    EXPECT_EQ(g.sanitizedBases(), 1u);
}

TEST(VariationGraphTest, EdgeCreatesReverseTwin)
{
    VariationGraph g = diamond();
    // Edge 1+ -> 2+ implies 2- -> 1-.
    EXPECT_TRUE(g.hasEdge(Handle(1, false), Handle(2, false)));
    EXPECT_TRUE(g.hasEdge(Handle(2, true), Handle(1, true)));
    EXPECT_FALSE(g.hasEdge(Handle(2, false), Handle(1, false)));
}

TEST(VariationGraphTest, EdgeIsIdempotent)
{
    VariationGraph g = diamond();
    size_t before = g.numEdges();
    const std::vector<std::pair<Handle, Handle>> again{
        {Handle(1, false), Handle(2, false)}};
    g.addEdges(again);
    EXPECT_EQ(g.numEdges(), before);
}

TEST(VariationGraphTest, EdgeToUnknownNodeThrows)
{
    VariationGraph g = diamond();
    const std::vector<std::pair<Handle, Handle>> dangling{
        {Handle(1, false), Handle(9, false)}};
    EXPECT_THROW(g.addEdges(dangling), util::Error);
}

TEST(VariationGraphTest, SequenceRespectsOrientation)
{
    VariationGraph g = diamond();
    EXPECT_EQ(g.sequence(Handle(1, false)), "ACGT");
    EXPECT_EQ(g.sequence(Handle(1, true)), "ACGT"); // palindrome
    EXPECT_EQ(g.sequence(Handle(4, false)), "CCAA");
    EXPECT_EQ(g.sequence(Handle(4, true)), "TTGG");
}

TEST(VariationGraphTest, BaseAccessorMatchesSequence)
{
    VariationGraph g = diamond();
    for (NodeId id = 1; id <= g.numNodes(); ++id) {
        for (bool reverse : {false, true}) {
            Handle h(id, reverse);
            std::string seq = g.sequence(h);
            for (size_t i = 0; i < seq.size(); ++i) {
                EXPECT_EQ(g.base(h, i), seq[i])
                    << h.str() << " offset " << i;
            }
        }
    }
}

TEST(VariationGraphTest, SuccessorsAndPredecessors)
{
    VariationGraph g = diamond();
    auto succ = g.successors(Handle(1, false));
    EXPECT_EQ(succ.size(), 2u);
    auto preds = g.predecessors(Handle(4, false));
    ASSERT_EQ(preds.size(), 2u);
    std::vector<NodeId> ids = {preds[0].id(), preds[1].id()};
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids[0], 2u);
    EXPECT_EQ(ids[1], 3u);
}

TEST(VariationGraphTest, PathValidationRequiresEdges)
{
    VariationGraph g = diamond();
    EXPECT_THROW(
        g.addPath("bad", {Handle(2, false), Handle(3, false)}),
        util::Error);
    g.addPath("good", {Handle(1, false), Handle(2, false),
                       Handle(4, false)});
    EXPECT_EQ(g.numPaths(), 1u);
}

TEST(VariationGraphTest, PathSequenceConcatenates)
{
    VariationGraph g = diamond();
    std::vector<Handle> steps = {Handle(1, false), Handle(3, false),
                                 Handle(4, false)};
    g.addPath("p", steps);
    EXPECT_EQ(g.pathSequence(steps), "ACGTGCCAA");
}

TEST(VariationGraphTest, TopologicalOrderRespectsEdges)
{
    VariationGraph g = diamond();
    std::vector<NodeId> order = g.topologicalOrder();
    ASSERT_EQ(order.size(), 4u);
    std::vector<size_t> rank(5);
    for (size_t i = 0; i < order.size(); ++i) {
        rank[order[i]] = i;
    }
    EXPECT_LT(rank[1], rank[2]);
    EXPECT_LT(rank[1], rank[3]);
    EXPECT_LT(rank[2], rank[4]);
    EXPECT_LT(rank[3], rank[4]);
}

TEST(VariationGraphTest, TopologicalOrderDetectsCycle)
{
    VariationGraph g;
    NodeId a = g.addNode("A");
    NodeId b = g.addNode("C");
    const std::vector<std::pair<Handle, Handle>> cycle{
        {Handle(a, false), Handle(b, false)},
        {Handle(b, false), Handle(a, false)}};
    g.addEdges(cycle);
    EXPECT_THROW(g.topologicalOrder(), util::Error);
}

TEST(VariationGraphTest, ValidatePassesOnGeneratedPangenome)
{
    sim::PangenomeParams params;
    params.backboneLength = 5000;
    params.haplotypes = 4;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);
    EXPECT_NO_THROW(pg.graph.validate());
    EXPECT_NO_THROW(pg.graph.topologicalOrder());
}

/** Property sweep: generated pangenomes of many shapes stay valid DAGs. */
class GeneratedGraphProperty
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{};

TEST_P(GeneratedGraphProperty, ValidDagWithConsistentPaths)
{
    auto [backbone, haps] = GetParam();
    sim::PangenomeParams params;
    params.seed = backbone * 31 + haps;
    params.backboneLength = backbone;
    params.haplotypes = haps;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);
    pg.graph.validate();
    std::vector<NodeId> order = pg.graph.topologicalOrder();
    EXPECT_EQ(order.size(), pg.graph.numNodes());
    // Haplotype walks and spelled sequences agree.
    ASSERT_EQ(pg.walks.size(), haps);
    for (size_t h = 0; h < haps; ++h) {
        EXPECT_EQ(pg.graph.pathSequence(pg.walks[h]), pg.sequences[h]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeneratedGraphProperty,
    ::testing::Combine(::testing::Values(500, 2000, 8000),
                       ::testing::Values(1, 2, 8, 16)));

} // namespace
} // namespace mg::graph
