/** Serialization round-trip and validation tests for the io module. */
#include <gtest/gtest.h>

#include <algorithm>

#include "index/distance.h"
#include "index/minimizer.h"
#include "io/extensions_io.h"
#include "io/fastq.h"
#include "io/file.h"
#include "io/mgz.h"
#include "io/reads_bin.h"
#include "sim/pangenome_gen.h"
#include "test_paths.h"
#include "util/common.h"
#include "util/status.h"

namespace mg::io {
namespace {

sim::GeneratedPangenome
makePangenome(uint64_t seed = 90)
{
    sim::PangenomeParams params;
    params.seed = seed;
    params.backboneLength = 4000;
    params.haplotypes = 5;
    return sim::generatePangenome(params);
}

TEST(FileTest, BytesRoundTrip)
{
    std::string path = testPath("mg_file_test.bin");
    std::vector<uint8_t> bytes = {0, 1, 2, 255, 128, 7};
    writeFileBytes(path, bytes);
    EXPECT_EQ(readFileBytes(path), bytes);
}

TEST(FileTest, MissingFileThrows)
{
    EXPECT_THROW(readFileBytes("/nonexistent/definitely/nope"),
                 util::Error);
}

/** A generated pangenome with its indexes, as MGZ container bytes. */
struct IndexedFixture
{
    sim::GeneratedPangenome pg;
    index::MinimizerIndex minimizers;
    index::DistanceIndex distance;
    std::vector<uint8_t> bytes;

    explicit IndexedFixture(sim::GeneratedPangenome generated)
        : pg(std::move(generated)),
          minimizers(pg.graph, index::MinimizerParams()),
          distance(pg.graph),
          bytes(encodeMgz3(pg.graph, pg.gbwt, minimizers, distance))
    {}
};

/** Write `bytes` under `name` and return the path. */
std::string
writeContainer(const std::string& name, const std::vector<uint8_t>& bytes)
{
    std::string path = testPath(name);
    writeFileBytes(path, bytes);
    return path;
}

/** The table entry of section `name` in a clean container. */
MgzSectionInfo
sectionNamed(const MgzInfo& info, const std::string& name)
{
    for (const MgzSectionInfo& section : info.sections) {
        if (section.name == name) {
            return section;
        }
    }
    ADD_FAILURE() << "no section " << name;
    return {};
}

TEST(MgzTest, RoundTripPreservesEverything)
{
    IndexedFixture fx(makePangenome());
    const sim::GeneratedPangenome& pg = fx.pg;
    IndexedPangenome loaded =
        loadPangenome(writeContainer("mg_roundtrip.mgz3", fx.bytes));

    EXPECT_EQ(loaded.graph.numNodes(), pg.graph.numNodes());
    EXPECT_EQ(loaded.graph.numEdges(), pg.graph.numEdges());
    for (graph::NodeId id = 1; id <= pg.graph.numNodes(); ++id) {
        ASSERT_EQ(loaded.graph.forwardSequence(id), pg.graph.forwardSequence(id));
    }
    // Edge sets match exactly.
    for (graph::NodeId id = 1; id <= pg.graph.numNodes(); ++id) {
        for (bool reverse : {false, true}) {
            graph::Handle h(id, reverse);
            auto a = pg.graph.successors(h);
            for (graph::Handle succ : a) {
                EXPECT_TRUE(loaded.graph.hasEdge(h, succ))
                    << h.str() << "->" << succ.str();
            }
            EXPECT_EQ(loaded.graph.successors(h).size(), a.size());
        }
    }
    // GBWT queries agree, locate() included: the haplotypes live in the
    // GBWT (the container stores no graph paths).
    EXPECT_EQ(loaded.gbwt.numPaths(), pg.gbwt.numPaths());
    EXPECT_EQ(loaded.gbwt.totalVisits(), pg.gbwt.totalVisits());
    for (graph::NodeId id = 1; id <= pg.graph.numNodes(); ++id) {
        graph::Handle h(id, false);
        EXPECT_EQ(loaded.gbwt.nodeCount(h), pg.gbwt.nodeCount(h));
    }
    for (const auto& walk : pg.walks) {
        std::vector<graph::Handle> prefix(
            walk.begin(), walk.begin() + std::min<size_t>(4, walk.size()));
        EXPECT_EQ(loaded.gbwt.pathsThrough(prefix),
                  pg.gbwt.pathsThrough(prefix));
    }
    // The prebuilt indexes come back as built.
    EXPECT_TRUE(loaded.minimizers.positions() == fx.minimizers.positions());
    EXPECT_EQ(loaded.minimizers.numKeys(), fx.minimizers.numKeys());
    EXPECT_TRUE(loaded.distance.minFromSource() ==
                fx.distance.minFromSource());
    loaded.graph.validate();
}

TEST(MgzTest, FileRoundTrip)
{
    IndexedFixture fx(makePangenome(91));
    std::string path = testPath("mg_test.mgz3");
    saveMgz3(path, fx.pg.graph, fx.pg.gbwt, fx.minimizers, fx.distance);
    EXPECT_EQ(readFileBytes(path), fx.bytes);
    IndexedPangenome loaded = loadPangenome(path);
    EXPECT_EQ(loaded.graph.numNodes(), fx.pg.graph.numNodes());
    EXPECT_EQ(loaded.info.mode, LoadMode::Mapped);
    EXPECT_EQ(loaded.info.fileBytes, fx.bytes.size());
}

TEST(MgzTest, CompressionBeatsNaiveEncoding)
{
    sim::PangenomeParams params;
    params.seed = 92;
    params.backboneLength = 20000;
    params.haplotypes = 8;
    IndexedFixture fx(sim::generatePangenome(params));
    const sim::GeneratedPangenome& pg = fx.pg;
    // Naive cost: 1 byte/base plus 8 bytes per path step, per GBWT visit
    // and per directed successor of an adjacency list.  The container's
    // graph and GBWT sections (2-bit packed sequence, u32 CSR edge table,
    // varint records) must beat it handily; the prebuilt min.* and dist.*
    // indexes are extra, not a re-encoding.
    size_t path_steps = 0;
    for (const graph::PathEntry& path : pg.graph.paths()) {
        path_steps += path.steps.size();
    }
    size_t naive = pg.graph.totalSequenceLength() + 8 * path_steps +
                   8 * pg.gbwt.totalVisits() +
                   8 * pg.graph.edgeTargets().size();
    size_t stored = 0;
    for (const MgzSectionInfo& section :
         inspectMgz3(fx.bytes.data(), fx.bytes.size()).sections) {
        const std::string name = section.name;
        if (name.rfind("min.", 0) != 0 && name.rfind("dist.", 0) != 0) {
            stored += section.size;
        }
    }
    EXPECT_LT(stored, naive / 2);
}

TEST(MgzTest, BadMagicThrows)
{
    const std::string path =
        writeContainer("mg_nope.mgz3", {'N', 'O', 'P', 'E', 0, 0});
    try {
        loadPangenome(path);
        FAIL() << "a file without the MGZ3 magic must not load";
    } catch (const util::StatusError& e) {
        EXPECT_EQ(e.status().code, util::StatusCode::Corrupt);
        EXPECT_NE(e.status().message.find("bad magic"), std::string::npos)
            << e.status().message;
    }
}

TEST(MgzTest, TruncatedPayloadThrows)
{
    IndexedFixture fx(makePangenome(93));
    std::vector<uint8_t> bytes = fx.bytes;
    bytes.resize(bytes.size() / 2);
    EXPECT_THROW(loadPangenome(writeContainer("mg_cut.mgz3", bytes)),
                 util::Error);
}

/** The retired stream magics — the pre-release "MGZ1" (no sizes or
 *  checksums) and "MGZ2" (the parse-and-build format) — are refused as
 *  bad magic, before any of the file is read against the container
 *  layout. */
TEST(MgzTest, LegacyV1MagicIsRejected)
{
    const std::vector<uint8_t> container =
        IndexedFixture(makePangenome(94)).bytes;
    for (const std::string magic : {"MGZ1", "MGZ2"}) {
        std::vector<uint8_t> bytes = container;
        std::copy(magic.begin(), magic.end(), bytes.begin());
        const std::string path = writeContainer("legacy.mgz", bytes);
        try {
            loadPangenome(path);
            FAIL() << "an " << magic << " image must not load";
        } catch (const util::StatusError& e) {
            EXPECT_EQ(e.status().code, util::StatusCode::Corrupt) << magic;
            EXPECT_NE(e.status().message.find("bad magic"),
                      std::string::npos)
                << e.status().message;
            EXPECT_EQ(e.status().file, path);
        }
        EXPECT_EQ(validatePangenomeFile(path).code,
                  util::StatusCode::Corrupt);
        EXPECT_THROW(inspectMgz3(bytes.data(), bytes.size()),
                     util::StatusError);
    }
}

TEST(MgzTest, ChecksumMismatchNamesTheDamagedSection)
{
    IndexedFixture fx(makePangenome(95));
    MgzInfo clean = inspectMgz3(fx.bytes.data(), fx.bytes.size());
    EXPECT_TRUE(clean.allChecksumsOk());

    // Flip one byte in the middle of the "edges" payload (verified on
    // every load), located via the inspection report rather than
    // hard-coded offsets.
    const MgzSectionInfo edges = sectionNamed(clean, "edges");
    ASSERT_GT(edges.size, 0u);
    std::vector<uint8_t> bad = fx.bytes;
    bad[edges.offset + edges.size / 2] ^= 0x40;
    const std::string path = writeContainer("graph.mgz3", bad);

    try {
        loadPangenome(path);
        FAIL() << "expected throw";
    } catch (const util::StatusError& e) {
        EXPECT_EQ(e.status().code, util::StatusCode::ChecksumMismatch);
        EXPECT_EQ(e.status().file, path);
        EXPECT_EQ(e.status().section, "edges");
    }
}

TEST(MgzTest, InspectReportsEveryDamagedSection)
{
    IndexedFixture fx(makePangenome(96));
    MgzInfo clean = inspectMgz3(fx.bytes.data(), fx.bytes.size());

    // Damage "seq.words" and "gbwt.arena"; leave the rest intact.
    std::vector<uint8_t> bad = fx.bytes;
    bad[sectionNamed(clean, "seq.words").offset] ^= 0x01;
    bad[sectionNamed(clean, "gbwt.arena").offset] ^= 0x01;

    MgzInfo report = inspectMgz3(bad.data(), bad.size());
    ASSERT_EQ(report.sections.size(), clean.sections.size());
    EXPECT_FALSE(report.allChecksumsOk());
    for (const MgzSectionInfo& section : report.sections) {
        const std::string name = section.name;
        EXPECT_EQ(section.crcOk, name != "seq.words" && name != "gbwt.arena")
            << name;
        if (!section.crcOk) {
            EXPECT_NE(section.crcComputed, section.crcStored);
        }
    }
}

TEST(SeedCaptureTest, RoundTrip)
{
    SeedCapture capture;
    capture.pairedEnd = true;
    for (int r = 0; r < 3; ++r) {
        ReadWithSeeds entry;
        entry.read.name = "read" + std::to_string(r);
        entry.read.sequence = "ACGTACGTAC";
        entry.read.mate = r == 0 ? 1 : SIZE_MAX;
        for (int s = 0; s < 4; ++s) {
            map::Seed seed;
            seed.position.handle = graph::Handle(10 + s, s % 2 == 1);
            seed.position.offset = static_cast<uint32_t>(s * 3);
            seed.readOffset = static_cast<uint32_t>(s);
            seed.onReverseRead = s % 2 == 0;
            seed.score = 0.125f * static_cast<float>(s + 1);
            entry.seeds.push_back(seed);
        }
        capture.entries.push_back(entry);
    }
    std::vector<uint8_t> bytes = encodeSeedCapture(capture);
    SeedCapture loaded = decodeSeedCapture(bytes);
    EXPECT_EQ(loaded.pairedEnd, capture.pairedEnd);
    ASSERT_EQ(loaded.entries.size(), capture.entries.size());
    for (size_t r = 0; r < capture.entries.size(); ++r) {
        EXPECT_EQ(loaded.entries[r].read.name,
                  capture.entries[r].read.name);
        EXPECT_EQ(loaded.entries[r].read.sequence,
                  capture.entries[r].read.sequence);
        EXPECT_EQ(loaded.entries[r].read.mate,
                  capture.entries[r].read.mate);
        ASSERT_EQ(loaded.entries[r].seeds.size(),
                  capture.entries[r].seeds.size());
        for (size_t s = 0; s < capture.entries[r].seeds.size(); ++s) {
            const map::Seed& a = loaded.entries[r].seeds[s];
            const map::Seed& b = capture.entries[r].seeds[s];
            EXPECT_TRUE(a == b);
            EXPECT_EQ(a.score, b.score); // exact float round-trip
        }
    }
}

TEST(ExtensionsIoTest, RoundTrip)
{
    std::vector<ReadExtensions> all;
    ReadExtensions entry;
    entry.readName = "readX";
    map::GaplessExtension ext;
    ext.path = {graph::Handle(3, false), graph::Handle(4, true)};
    ext.startOffset = 2;
    ext.readBegin = 5;
    ext.readEnd = 45;
    ext.mismatchOffsets = {7, 20};
    ext.score = 40 - 8;
    ext.onReverseRead = true;
    ext.fullLength = false;
    entry.extensions.push_back(ext);
    all.push_back(entry);

    auto loaded = decodeExtensions(encodeExtensions(all));
    ASSERT_EQ(loaded.size(), 1u);
    ASSERT_EQ(loaded[0].extensions.size(), 1u);
    EXPECT_TRUE(loaded[0].extensions[0] == ext);
    EXPECT_EQ(loaded[0].extensions[0].score, ext.score);
    EXPECT_EQ(loaded[0].extensions[0].fullLength, ext.fullLength);
}

TEST(ExtensionsIoTest, ValidationDetectsPerfectMatch)
{
    std::vector<ReadExtensions> a;
    ReadExtensions entry;
    entry.readName = "r";
    map::GaplessExtension ext;
    ext.path = {graph::Handle(1, false)};
    ext.readEnd = 10;
    ext.score = 10;
    entry.extensions.push_back(ext);
    a.push_back(entry);

    ValidationReport report = validateExtensions(a, a);
    EXPECT_TRUE(report.perfectMatch());
    EXPECT_EQ(report.readsCompared, 1u);
    EXPECT_EQ(report.extensionsExpected, 1u);
    EXPECT_EQ(report.extensionsFound, 1u);
}

TEST(ExtensionsIoTest, ValidationDetectsMissingAndUnexpected)
{
    map::GaplessExtension e1;
    e1.path = {graph::Handle(1, false)};
    e1.readEnd = 10;
    map::GaplessExtension e2 = e1;
    e2.readEnd = 20;

    std::vector<ReadExtensions> expected = {{"r", {e1, e2}}};
    std::vector<ReadExtensions> candidate = {{"r", {e2}}};
    ValidationReport report = validateExtensions(expected, candidate);
    EXPECT_FALSE(report.perfectMatch());
    EXPECT_EQ(report.missing, 1u);
    EXPECT_EQ(report.unexpected, 0u);

    // Swap roles: now there is an unexpected extension.
    report = validateExtensions(candidate, expected);
    EXPECT_EQ(report.missing, 0u);
    EXPECT_EQ(report.unexpected, 1u);
}

TEST(ExtensionsIoTest, ValidationCountsDuplicates)
{
    map::GaplessExtension e;
    e.path = {graph::Handle(1, false)};
    e.readEnd = 10;
    std::vector<ReadExtensions> two = {{"r", {e, e}}};
    std::vector<ReadExtensions> one = {{"r", {e}}};
    ValidationReport report = validateExtensions(two, one);
    EXPECT_EQ(report.missing, 1u);
}

TEST(FastqTest, RoundTrip)
{
    map::ReadSet reads;
    for (int i = 0; i < 3; ++i) {
        map::Read read;
        read.name = "seq" + std::to_string(i);
        read.sequence = "ACGTACGTA";
        reads.reads.push_back(read);
    }
    map::ReadSet loaded = parseFastq(formatFastq(reads));
    ASSERT_EQ(loaded.reads.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(loaded.reads[i].name, reads.reads[i].name);
        EXPECT_EQ(loaded.reads[i].sequence, reads.reads[i].sequence);
    }
}

TEST(FastqTest, MalformedInputThrows)
{
    EXPECT_THROW(parseFastq("@x\nACGT\n"), util::Error);           // 2 lines
    EXPECT_THROW(parseFastq("x\nACGT\n+\nIIII\n"), util::Error);   // no @
    EXPECT_THROW(parseFastq("@x\nAC-T\n+\nIIII\n"), util::Error);  // garbage
    EXPECT_THROW(parseFastq("@x\nACGT\n-\nIIII\n"), util::Error);  // no +
    EXPECT_THROW(parseFastq("@x\nACGT\n+\nII\n"), util::Error);    // short Q
}

TEST(FastqTest, AmbiguityLettersCanonicalized)
{
    // Policy (util/dna.h): ambiguity letters -> 'A', counted; lower-case
    // acgt upper-cased without counting; non-letters reject (test above).
    map::ReadSet set = parseFastq("@x\nACGN\n+\nIIII\n@y\nacgt\n+\nIIII\n");
    ASSERT_EQ(set.reads.size(), 2u);
    EXPECT_EQ(set.reads[0].sequence, "ACGA");
    EXPECT_EQ(set.reads[1].sequence, "ACGT");
    EXPECT_EQ(set.sanitizedBases, 1u);
}

} // namespace
} // namespace mg::io
