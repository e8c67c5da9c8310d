/** Tests for the GAF alignment writer. */
#include <gtest/gtest.h>

#include "io/gaf.h"
#include "util/common.h"
#include "util/str.h"

namespace mg::io {
namespace {

graph::VariationGraph
smallGraph()
{
    graph::VariationGraph g;
    g.addNode("ACGTACGT"); // 1, len 8
    g.addNode("TTTT");     // 2, len 4
    const std::vector<std::pair<graph::Handle, graph::Handle>> edges{
        {graph::Handle(1, false), graph::Handle(2, false)}};
    g.addEdges(edges);
    return g;
}

map::Read
read100(const std::string& name)
{
    map::Read read;
    read.name = name;
    read.sequence = std::string(10, 'A');
    return read;
}

TEST(GafTest, MappedLineHasTwelveColumnsPlusTags)
{
    graph::VariationGraph g = smallGraph();
    giraffe::Alignment alignment;
    alignment.readName = "r1";
    alignment.mapped = true;
    alignment.path = {graph::Handle(1, false), graph::Handle(2, true)};
    alignment.startOffset = 3;
    alignment.readBegin = 0;
    alignment.readEnd = 9;
    alignment.mismatches = 1;
    alignment.score = 9 - 1 - 4;
    alignment.mappingQuality = 42;

    std::string line = formatGafLine(alignment, read100("r1"), g);
    std::vector<std::string> fields = util::split(line, '\t');
    ASSERT_GE(fields.size(), 13u);
    EXPECT_EQ(fields[0], "r1");
    EXPECT_EQ(fields[1], "10");      // query length
    EXPECT_EQ(fields[2], "0");       // qstart
    EXPECT_EQ(fields[3], "9");       // qend
    EXPECT_EQ(fields[4], "+");
    EXPECT_EQ(fields[5], ">1<2");    // oriented path
    EXPECT_EQ(fields[6], "12");      // path bases
    EXPECT_EQ(fields[7], "3");       // path start
    EXPECT_EQ(fields[8], "12");      // path end
    EXPECT_EQ(fields[9], "8");       // matches = 9 aligned - 1 mismatch
    EXPECT_EQ(fields[10], "9");      // alignment span
    EXPECT_EQ(fields[11], "42");     // mapq
    EXPECT_EQ(fields[12], "AS:i:4"); // score tag
}

TEST(GafTest, UnmappedLineUsesStarPath)
{
    graph::VariationGraph g = smallGraph();
    giraffe::Alignment alignment;
    alignment.readName = "r2";
    std::string line = formatGafLine(alignment, read100("r2"), g);
    std::vector<std::string> fields = util::split(line, '\t');
    ASSERT_EQ(fields.size(), 12u);
    EXPECT_EQ(fields[5], "*");
    EXPECT_EQ(fields[11], "255");
}

TEST(GafTest, WholeRunOneLinePerRead)
{
    graph::VariationGraph g = smallGraph();
    map::ReadSet reads;
    reads.reads = {read100("a"), read100("b")};
    std::vector<giraffe::Alignment> alignments(2);
    alignments[0].readName = "a";
    alignments[1].readName = "b";
    alignments[1].mapped = true;
    alignments[1].path = {graph::Handle(1, false)};
    alignments[1].readEnd = 8;

    std::string gaf = formatGaf(alignments, reads, g);
    std::vector<std::string> lines = util::split(gaf, '\n');
    // Two records plus the empty trailing split field.
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_TRUE(util::startsWith(lines[0], "a\t"));
    EXPECT_TRUE(util::startsWith(lines[1], "b\t"));
}

TEST(GafTest, MismatchedNamesThrow)
{
    graph::VariationGraph g = smallGraph();
    giraffe::Alignment alignment;
    alignment.readName = "x";
    EXPECT_THROW(formatGafLine(alignment, read100("y"), g), util::Error);
}

} // namespace
} // namespace mg::io
