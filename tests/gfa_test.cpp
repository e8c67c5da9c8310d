/** Tests for GFA 1.0 interchange. */
#include <gtest/gtest.h>

#include "io/gfa.h"
#include "sim/pangenome_gen.h"
#include "util/common.h"

namespace mg::io {
namespace {

TEST(GfaTest, FormatsAllRecordTypes)
{
    graph::VariationGraph g;
    graph::NodeId a = g.addNode("ACGT");
    graph::NodeId b = g.addNode("TT");
    const std::vector<std::pair<graph::Handle, graph::Handle>> edges{
        {graph::Handle(a, false), graph::Handle(b, false)}};
    g.addEdges(edges);
    g.addPath("hap0", {graph::Handle(a, false), graph::Handle(b, false)});

    std::string gfa = formatGfa(g);
    EXPECT_NE(gfa.find("H\tVN:Z:1.0"), std::string::npos);
    EXPECT_NE(gfa.find("S\t1\tACGT"), std::string::npos);
    EXPECT_NE(gfa.find("S\t2\tTT"), std::string::npos);
    EXPECT_NE(gfa.find("L\t1\t+\t2\t+\t0M"), std::string::npos);
    EXPECT_NE(gfa.find("P\thap0\t1+,2+\t*"), std::string::npos);
}

TEST(GfaTest, RoundTripPreservesGeneratedPangenome)
{
    sim::PangenomeParams params;
    params.seed = 55;
    params.backboneLength = 3000;
    params.haplotypes = 4;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);

    graph::VariationGraph back = parseGfa(formatGfa(pg.graph));
    ASSERT_EQ(back.numNodes(), pg.graph.numNodes());
    ASSERT_EQ(back.numEdges(), pg.graph.numEdges());
    ASSERT_EQ(back.numPaths(), pg.graph.numPaths());
    for (graph::NodeId id = 1; id <= pg.graph.numNodes(); ++id) {
        ASSERT_EQ(back.forwardSequence(id), pg.graph.forwardSequence(id));
    }
    for (size_t p = 0; p < pg.graph.numPaths(); ++p) {
        EXPECT_EQ(back.path(p).name, pg.graph.path(p).name);
        ASSERT_EQ(back.path(p).steps, pg.graph.path(p).steps);
    }
    back.validate();
}

TEST(GfaTest, ParsesReverseOrientationLinks)
{
    std::string gfa =
        "H\tVN:Z:1.0\n"
        "S\t1\tACGT\n"
        "S\t2\tGGG\n"
        "L\t1\t+\t2\t-\t0M\n";
    graph::VariationGraph g = parseGfa(gfa);
    EXPECT_TRUE(g.hasEdge(graph::Handle(1, false), graph::Handle(2, true)));
    EXPECT_TRUE(g.hasEdge(graph::Handle(2, false), graph::Handle(1, true)));
}

TEST(GfaTest, CompactsSparseNumericIds)
{
    // Segment names 10 and 20 become dense ids 1 and 2, numeric order.
    std::string gfa =
        "S\t20\tCC\n"
        "S\t10\tAA\n"
        "L\t10\t+\t20\t+\t*\n"
        "P\tp\t10+,20+\t*\n";
    graph::VariationGraph g = parseGfa(gfa);
    ASSERT_EQ(g.numNodes(), 2u);
    EXPECT_EQ(g.forwardSequence(1), "AA");
    EXPECT_EQ(g.forwardSequence(2), "CC");
    ASSERT_EQ(g.numPaths(), 1u);
    EXPECT_EQ(g.path(0).steps[0], graph::Handle(1, false));
}

TEST(GfaTest, IgnoresCommentsAndUnknownRecords)
{
    std::string gfa =
        "# a comment\n"
        "S\t1\tACGT\n"
        "W\tsample\t1\tchr1\t0\t4\t>1\n"; // GFA 1.1 walk: ignored
    graph::VariationGraph g = parseGfa(gfa);
    EXPECT_EQ(g.numNodes(), 1u);
}

TEST(GfaTest, MalformedInputThrows)
{
    EXPECT_THROW(parseGfa("S\t1\n"), util::Error);            // short S
    EXPECT_THROW(parseGfa("S\tx\tACGT\n"), util::Error);      // bad name
    EXPECT_THROW(parseGfa("S\t1\tACGT\nS\t1\tA\n"),
                 util::Error);                                // duplicate
    EXPECT_THROW(parseGfa("S\t1\tAC\nL\t1\t+\t2\t+\t0M\n"),
                 util::Error);                                // bad target
    EXPECT_THROW(parseGfa("S\t1\tAC\nS\t2\tGG\nL\t1\t+\t2\t+\t5M\n"),
                 util::Error);                                // overlap
    EXPECT_THROW(parseGfa("S\t1\tAC\nP\tp\t3+\t*\n"),
                 util::Error);                                // bad step
}

} // namespace
} // namespace mg::io
