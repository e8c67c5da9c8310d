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
#include "util/cursor.h"
#include "util/rng.h"
#include "util/status.h"
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

/**
 * Decode crafted record bytes the way Gbwt::decodeRecordInto does: a cursor
 * over exactly the record's span, in section "gbwt-record".
 */
DecodedRecord
decodeBytes(const std::vector<uint8_t>& bytes)
{
    util::ByteCursor cursor(bytes);
    cursor.enterSection("gbwt-record");
    DecodedRecord record;
    DecodedRecord::decodeInto(cursor, record);
    EXPECT_TRUE(cursor.atEnd());
    return record;
}

/** The StatusError decodeBytes(bytes) throws, or a failed expectation. */
util::Status
decodeFailure(const std::vector<uint8_t>& bytes)
{
    try {
        decodeBytes(bytes);
    } catch (const util::StatusError& error) {
        return error.status();
    }
    ADD_FAILURE() << "decode of " << bytes.size() << " bytes succeeded";
    return util::Status{};
}

std::vector<uint8_t>
concat(std::initializer_list<std::vector<uint8_t>> parts)
{
    std::vector<uint8_t> out;
    for (const std::vector<uint8_t>& part : parts) {
        out.insert(out.end(), part.begin(), part.end());
    }
    return out;
}

std::vector<uint8_t>
varint(uint64_t value)
{
    std::vector<uint8_t> out;
    util::putVarint(out, value);
    return out;
}

// One edge to node 1 (packed 2) at offset 0, then one run of edge 0.
const std::vector<uint8_t> kOneEdgeOneRun = {0x01, 0x02, 0x00, 0x01, 0x00};

TEST(RecordTest, MalformedBytesKeepEveryCheck)
{
    struct Case
    {
        const char* what;
        std::vector<uint8_t> bytes;
        util::StatusCode code;
        uint64_t offset;
    };
    const Case cases[] = {
        {"varint continues past the span's last byte",
         concat({kOneEdgeOneRun, {0x85}}), util::StatusCode::Truncated, 6},
        {"span ends where a varint starts", {0x01, 0x02},
         util::StatusCode::Truncated, 2},
        {"11-byte varint",
         {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
         util::StatusCode::Corrupt, 11},
        {"edge count beyond the payload", {0x05, 0x00},
         util::StatusCode::Corrupt, 1},
        {"run count beyond the payload", {0x00, 0x05},
         util::StatusCode::Corrupt, 2},
        {"run rank equal to the edge count",
         {0x01, 0x02, 0x00, 0x01, 0x01, 0x03}, util::StatusCode::Corrupt, 6},
        {"run length above UINT32_MAX",
         concat({kOneEdgeOneRun, varint(uint64_t{UINT32_MAX} + 1)}),
         util::StatusCode::Corrupt, 10},
    };
    for (const Case& c : cases) {
        const util::Status status = decodeFailure(c.bytes);
        EXPECT_EQ(status.code, c.code) << c.what;
        EXPECT_EQ(status.section, "gbwt-record") << c.what;
        EXPECT_EQ(status.offset, c.offset) << c.what;
    }
}

TEST(RecordTest, MultiByteVarintEndingTheSpanDecodes)
{
    // Run length 300 = 0xAC 0x02, whose last byte is the span's last.
    DecodedRecord record = decodeBytes(concat({kOneEdgeOneRun, {0xAC, 0x02}}));
    ASSERT_EQ(record.runs().size(), 1u);
    EXPECT_EQ(record.runs()[0].length, 300u);
    EXPECT_EQ(record.numVisits(), 300u);
    // Largest run length the format admits, also ending the span.
    record = decodeBytes(concat({kOneEdgeOneRun, varint(UINT32_MAX)}));
    EXPECT_EQ(record.numVisits(), uint64_t{UINT32_MAX});
    // A multi-byte edge offset in the middle of the record.
    record = decodeBytes({0x01, 0x02, 0xE8, 0x07, 0x01, 0x00, 0x02});
    ASSERT_EQ(record.edges().size(), 1u);
    EXPECT_EQ(record.edges()[0].offset, 1000u);
    EXPECT_EQ(record.numVisits(), 2u);
}

/** successorStatesInto by replaying every visit of the record's body. */
std::vector<SearchState>
bruteForceSuccessors(const std::vector<RecordEdge>& edges,
                     const std::vector<RecordRun>& runs,
                     const SearchState& state)
{
    std::vector<uint64_t> before(edges.size(), 0);
    std::vector<uint64_t> inside(edges.size(), 0);
    uint64_t pos = 0;
    for (const RecordRun& run : runs) {
        for (uint32_t i = 0; i < run.length; ++i, ++pos) {
            if (pos < state.start) {
                ++before[run.edgeRank];
            } else if (pos < state.end) {
                ++inside[run.edgeRank];
            }
        }
    }
    std::vector<SearchState> out;
    for (size_t e = 0; e < edges.size(); ++e) {
        if (inside[e] > 0 && edges[e].successor.valid()) {
            const uint64_t lo = edges[e].offset + before[e];
            out.emplace_back(edges[e].successor, lo, lo + inside[e]);
        }
    }
    return out;
}

TEST(RecordTest, RecordBeyondInlineCapacityRoundTrips)
{
    // Five edges (the first is the path-end marker) and forty runs: both
    // lists spill past the inline capacity.
    std::vector<RecordEdge> edges = {
        {Handle(), 0},           {Handle(3, false), 7},
        {Handle(4, true), 0},    {Handle(9, false), 130},
        {Handle(400, true), 2},
    };
    std::vector<RecordRun> runs;
    util::Rng rng(91);
    uint64_t visits = 0;
    for (int i = 0; i < 40; ++i) {
        runs.push_back({static_cast<uint32_t>(rng.uniform(edges.size())),
                        static_cast<uint32_t>(1 + rng.uniform(5))});
        visits += runs.back().length;
    }
    ASSERT_GT(edges.size(), kInlineEdges);
    ASSERT_GT(runs.size(), kInlineRuns);
    const DecodedRecord original(edges, runs, visits);
    util::ByteWriter writer;
    original.encode(writer);

    // Decode into a record that last held a small one, then into the same
    // record again, so both the spill and its reuse are exercised.
    DecodedRecord back = decodeBytes(concat({kOneEdgeOneRun, {0x03}}));
    for (int round = 0; round < 2; ++round) {
        util::ByteCursor cursor(writer.bytes());
        cursor.enterSection("gbwt-record");
        DecodedRecord::decodeInto(cursor, back);
        EXPECT_TRUE(cursor.atEnd());
        EXPECT_EQ(back.numVisits(), visits);
        ASSERT_EQ(back.edges().size(), edges.size());
        for (size_t e = 0; e < edges.size(); ++e) {
            EXPECT_EQ(back.edges()[e].successor, edges[e].successor);
            EXPECT_EQ(back.edges()[e].offset, edges[e].offset);
        }
        ASSERT_EQ(back.runs().size(), runs.size());
        for (size_t r = 0; r < runs.size(); ++r) {
            EXPECT_EQ(back.runs()[r].edgeRank, runs[r].edgeRank);
            EXPECT_EQ(back.runs()[r].length, runs[r].length);
        }
    }
    util::ByteWriter again;
    back.encode(again);
    EXPECT_EQ(again.bytes(), writer.bytes());

    for (uint64_t lo = 0; lo < visits; lo += 3) {
        for (uint64_t hi = lo + 1; hi <= visits; hi += 7) {
            const SearchState state(Handle(2, false), lo, hi);
            std::vector<SearchState> got;
            back.successorStatesInto(state, got);
            const std::vector<SearchState> want =
                bruteForceSuccessors(edges, runs, state);
            ASSERT_EQ(got.size(), want.size()) << lo << ".." << hi;
            for (size_t i = 0; i < got.size(); ++i) {
                EXPECT_EQ(got[i].node, want[i].node);
                EXPECT_EQ(got[i].start, want[i].start);
                EXPECT_EQ(got[i].end, want[i].end);
            }
        }
    }
}

} // namespace
} // namespace mg::gbwt
