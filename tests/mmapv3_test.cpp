/**
 * Zero-copy MGZ container tests (ctest label `mmapv3`).
 *
 * The contract under test: a container is a pure function of the
 * pangenome (byte-identical across build thread counts), mapping it back
 * produces a pipeline observably identical to the in-memory indexes it
 * was written from (GAF byte-for-byte on the A-human and B-yeast
 * analogs), structural damage is rejected with a structured error naming
 * the section — never a crash — and concurrent consumers of one file
 * share a single page-cache copy.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "gbwt/gbwt.h"
#include "giraffe/parent.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/file.h"
#include "io/gaf.h"
#include "io/mgz.h"
#include "mem/arena.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "sim/input_sets.h"
#include "test_paths.h"
#include "util/crc32.h"
#include "util/status.h"

namespace mg::io {
namespace {

/** One input-set analog with prebuilt indexes and its container. */
struct V3World
{
    sim::InputSet set;
    index::MinimizerIndex minimizers;
    index::DistanceIndex distance;
    std::string v3Path;
};

/** The analog and its indexes, with no container written. */
V3World
indexV3World(const std::string& input_set, double scale)
{
    V3World world;
    world.set = sim::buildInputSet(sim::inputSetSpec(input_set), scale);
    index::MinimizerParams mparams;
    mparams.k = 15;
    mparams.w = 8;
    world.minimizers =
        index::MinimizerIndex(world.set.pangenome.graph, mparams);
    world.distance = index::DistanceIndex(world.set.pangenome.graph);
    return world;
}

V3World
buildV3World(const std::string& input_set, double scale)
{
    V3World world = indexV3World(input_set, scale);
    world.v3Path = testPath("mmapv3_" + input_set + ".mgz3");
    saveMgz3(world.v3Path, world.set.pangenome.graph,
             world.set.pangenome.gbwt, world.minimizers, world.distance);
    return world;
}

/** The revision-5 section table, in file order. */
const std::vector<std::string> kV3Sections = {
    "meta",          "edges",        "edges.offsets", "seq.words",
    "seq.offsets",   "gbwt.arena",   "gbwt.offsets",  "gbwt.docarena",
    "gbwt.docoffs",  "min.pos",      "min.table",     "dist.min",
};

std::vector<std::string>
sectionNames(const MgzInfo& info)
{
    std::vector<std::string> names;
    for (const MgzSectionInfo& section : info.sections) {
        names.emplace_back(section.name);
    }
    return names;
}

std::string
mapToGaf(const graph::VariationGraph& graph, const gbwt::Gbwt& gbwt,
         const index::MinimizerIndex& minimizers,
         const index::DistanceIndex& distance, const map::ReadSet& reads)
{
    giraffe::ParentEmulator parent(graph, gbwt, minimizers, distance,
                                   giraffe::ParentParams());
    giraffe::ParentOutputs outputs = parent.run(reads);
    return formatGaf(outputs.alignments, reads, graph);
}

// --------------------------------------------------------------------
// mem substrate units

TEST(MappedFileTest, OpensMapsAndReportsResidency)
{
    std::string path = testPath("mmapv3_basic.bin");
    std::vector<uint8_t> bytes(3 * mem::MappedFile::pageSize() + 17);
    for (size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<uint8_t>(i * 31u);
    }
    writeFileBytes(path, bytes);

    auto mapping = mem::MappedFile::open(path);
    ASSERT_NE(mapping, nullptr);
    EXPECT_EQ(mapping->size(), bytes.size());
    EXPECT_EQ(mapping->path(), path);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(mapping->data())
                  % mem::MappedFile::pageSize(),
              0u);
    EXPECT_EQ(std::memcmp(mapping->data(), bytes.data(), bytes.size()), 0);
    // Touching every page makes the whole mapping resident.
    EXPECT_GE(mapping->residentBytes(), bytes.size());
}

TEST(MappedFileTest, OpenMissingFileThrows)
{
    EXPECT_THROW(mem::MappedFile::open(testPath("mmapv3_missing.bin")),
                 util::Error);
}

TEST(ArenaViewTest, OwnedAndMappedBackingsAgree)
{
    mem::ArenaView<uint64_t> owned;
    owned.owned() = { 3, 1, 4, 1, 5 };
    EXPECT_FALSE(owned.isMapped());
    EXPECT_EQ(owned.size(), 5u);
    EXPECT_EQ(owned[2], 4u);
    EXPECT_EQ(owned.back(), 5u);
    EXPECT_EQ(owned.bytes(), 5 * sizeof(uint64_t));

    std::string path = testPath("mmapv3_arena.bin");
    std::vector<uint8_t> raw(5 * sizeof(uint64_t));
    std::memcpy(raw.data(), owned.data(), raw.size());
    writeFileBytes(path, raw);
    auto mapping = mem::MappedFile::open(path);
    mem::ArenaView<uint64_t> mapped;
    mapped.bind(mapping,
                reinterpret_cast<const uint64_t*>(mapping->data()), 5);
    EXPECT_TRUE(mapped.isMapped());
    EXPECT_TRUE(mapped == owned);
    EXPECT_TRUE(owned == mapped);
    // The view keeps the mapping alive after the local handle drops.
    mapping.reset();
    EXPECT_EQ(mapped[4], 5u);
}

// --------------------------------------------------------------------
// Golden round trip: the mapped container is observably identical to the
// in-memory indexes it was written from, down to the GAF bytes.

class GoldenRoundTrip : public ::testing::TestWithParam<const char*>
{};

TEST_P(GoldenRoundTrip, MappedGafMatchesParsedByteForByte)
{
    V3World world = buildV3World(GetParam(), 0.03);
    const graph::VariationGraph& graph = world.set.pangenome.graph;
    const gbwt::Gbwt& gbwt = world.set.pangenome.gbwt;

    IndexedPangenome mapped = loadPangenome(world.v3Path);
    EXPECT_EQ(mapped.info.mode, LoadMode::Mapped);
    EXPECT_STREQ(loadModeName(mapped.info.mode), "mmap");
    ASSERT_NE(mapped.mapping, nullptr);
    EXPECT_GT(mapped.info.mappedBytes, 0u);

    // Same logical structures on both sides, except that the container
    // stores no graph paths: the GBWT holds the haplotypes (both
    // orientations).
    EXPECT_EQ(mapped.graph.numNodes(), graph.numNodes());
    EXPECT_EQ(mapped.graph.numEdges(), graph.numEdges());
    EXPECT_EQ(mapped.gbwt.numPaths(), gbwt.numPaths());
    EXPECT_EQ(mapped.gbwt.numPaths(), 2 * graph.numPaths());
    EXPECT_EQ(mapped.graph.numPaths(), 0u);
    EXPECT_EQ(mapped.minimizers.numKeys(), world.minimizers.numKeys());
    EXPECT_TRUE(mapped.minimizers.positions() ==
                world.minimizers.positions());

    // The edge table maps back exactly as built, so a mapped generation
    // holds no heap.
    EXPECT_TRUE(mapped.graph.edgeOffsets() == graph.edgeOffsets());
    EXPECT_TRUE(mapped.graph.edgeTargets() == graph.edgeTargets());
    EXPECT_EQ(mapped.info.heapBytes, 0u);
    EXPECT_EQ(mapped.info.heapBytes, mapped.graph.heapBytes());

    // The arena accounting reports the logical sizes of the in-memory
    // arenas, whether they live on the heap or in the mapping.
    const graph::SequenceStore& store = graph.sequenceStore();
    const gbwt::Gbwt::ArenaRefs refs = gbwt.arenaRefs();
    const std::vector<std::pair<std::string, uint64_t>> heap_sections = {
        {"edges", graph.edgeTargets().bytes()},
        {"edges.offsets", graph.edgeOffsets().bytes()},
        {"seq.words", store.words().bytes()},
        {"seq.offsets", store.offsets().bytes()},
        {"gbwt.arena", refs.arenaSize},
        {"gbwt.offsets", refs.numRecordOffsets * sizeof(uint32_t)},
        {"gbwt.docarena", refs.docArenaSize},
        {"gbwt.docoffs", refs.numDocOffsets * sizeof(uint32_t)},
        {"min.pos", world.minimizers.positions().bytes()},
        {"min.table", world.minimizers.buckets().bytes()},
        {"dist.min", world.distance.minFromSource().bytes()},
    };
    EXPECT_EQ(mapped.info.sections, heap_sections);

    std::string heap_gaf = mapToGaf(graph, gbwt, world.minimizers,
                                    world.distance, world.set.reads);
    std::string mapped_gaf =
        mapToGaf(mapped.graph, mapped.gbwt, mapped.minimizers,
                 mapped.distance, world.set.reads);
    EXPECT_FALSE(heap_gaf.empty());
    EXPECT_EQ(heap_gaf, mapped_gaf)
        << "GAF must be byte-identical between heap and mapped indexes";

    mapped.refreshResidency();
    EXPECT_GT(mapped.info.residentBytes, 0u);
    EXPECT_LE(mapped.info.residentBytes, mapped.info.mappedBytes);
}

INSTANTIATE_TEST_SUITE_P(InputSets, GoldenRoundTrip,
                         ::testing::Values("A-human", "B-yeast"));

// --------------------------------------------------------------------
// Determinism: the v3 encoder is a pure function of the pangenome; the
// parallel GBWT/minimizer builders must not let thread scheduling leak
// into the bytes.

TEST(V3Determinism, ContainerBytesIdenticalAcrossBuildThreads)
{
    // Every section of the layout takes part: each holds bytes, so a
    // nondeterministic builder behind any of them would show here.
    sim::InputSet set =
        sim::buildInputSet(sim::inputSetSpec("B-yeast"), 0.02);
    const graph::VariationGraph& graph = set.pangenome.graph;
    index::DistanceIndex distance(graph);

    std::vector<uint8_t> baseline;
    for (unsigned threads : { 1u, 4u, 8u }) {
        gbwt::GbwtBuilder builder;
        for (const graph::PathEntry& path : graph.paths()) {
            builder.addPath(path.steps);
        }
        gbwt::Gbwt gbwt = std::move(builder).build(threads);

        index::MinimizerParams mparams;
        mparams.k = 15;
        mparams.w = 8;
        mparams.buildThreads = threads;
        index::MinimizerIndex minimizers(graph, mparams);

        std::vector<uint8_t> bytes =
            encodeMgz3(graph, gbwt, minimizers, distance);
        if (baseline.empty()) {
            baseline = std::move(bytes);
            ASSERT_FALSE(baseline.empty());
            const MgzInfo info =
                inspectMgz3(baseline.data(), baseline.size(), "test");
            ASSERT_EQ(sectionNames(info), kV3Sections);
            for (const MgzSectionInfo& section : info.sections) {
                EXPECT_GT(section.size, 0u) << section.name;
            }
        } else {
            EXPECT_EQ(bytes, baseline)
                << "v3 bytes differ at " << threads << " build threads";
        }
    }
}

TEST(V3Determinism, EncodeIsIdempotent)
{
    V3World world = buildV3World("B-yeast", 0.02);
    std::vector<uint8_t> a =
        encodeMgz3(world.set.pangenome.graph, world.set.pangenome.gbwt,
                   world.minimizers, world.distance);
    std::vector<uint8_t> b =
        encodeMgz3(world.set.pangenome.graph, world.set.pangenome.gbwt,
                   world.minimizers, world.distance);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a, readFileBytes(world.v3Path));
}

/**
 * Saving over a served container publishes a new file instead of
 * rewriting the old one: a MAP_SHARED mapping taken before the save keeps
 * reading the old bytes (a truncate-in-place writer would zero or unmap
 * them under the reader), while a fresh open sees the new container.
 */
TEST(V3Publish, SaveOverMappedContainerLeavesOldMappingIntact)
{
    V3World small = indexV3World("B-yeast", 0.02);
    V3World large = indexV3World("A-human", 0.02);
    const std::string path = testPath(
        "mmapv3_publish_" + std::to_string(::getpid()) + ".mgz3");
    auto save = [&](const V3World& world) {
        saveMgz3(path, world.set.pangenome.graph, world.set.pangenome.gbwt,
                 world.minimizers, world.distance);
    };
    save(large);
    const std::vector<uint8_t> old_bytes = readFileBytes(path);
    auto old_mapping = mem::MappedFile::open(path);
    ASSERT_EQ(old_mapping->size(), old_bytes.size());

    save(small);
    const std::vector<uint8_t> new_bytes = readFileBytes(path);
    ASSERT_NE(new_bytes, old_bytes);
    ASSERT_LT(new_bytes.size(), old_bytes.size());
    // Every page of the old mapping, including those past the new file's
    // end, still reads the old container.
    EXPECT_EQ(std::memcmp(old_mapping->data(), old_bytes.data(),
                          old_bytes.size()),
              0)
        << "save rewrote a mapped file";
    auto new_mapping = mem::MappedFile::open(path);
    ASSERT_EQ(new_mapping->size(), new_bytes.size());
    EXPECT_EQ(std::memcmp(new_mapping->data(), new_bytes.data(),
                          new_bytes.size()),
              0);
    ::unlink(path.c_str());
}

// --------------------------------------------------------------------
// Inspection + validation

class V3Container : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        world_ = new V3World(buildV3World("B-yeast", 0.02));
        bytes_ = new std::vector<uint8_t>(readFileBytes(world_->v3Path));
    }

    static void
    TearDownTestSuite()
    {
        delete world_;
        delete bytes_;
        world_ = nullptr;
        bytes_ = nullptr;
    }

    /** Write a mutated copy and return its path. */
    std::string
    writeMutant(const std::string& name, std::vector<uint8_t> bytes) const
    {
        std::string path = testPath("mmapv3_mut_" + name + ".mgz3");
        writeFileBytes(path, bytes);
        return path;
    }

    static V3World* world_;
    static std::vector<uint8_t>* bytes_;
};

V3World* V3Container::world_ = nullptr;
std::vector<uint8_t>* V3Container::bytes_ = nullptr;

TEST_F(V3Container, InspectReportsEverySectionChecksummed)
{
    MgzInfo info = inspectMgz3(bytes_->data(), bytes_->size(), "test");
    EXPECT_EQ(info.fileBytes, bytes_->size());
    EXPECT_EQ(sectionNames(info), kV3Sections);
    EXPECT_TRUE(info.allChecksumsOk());
    uint64_t page = 4096;
    for (const MgzSectionInfo& section : info.sections) {
        EXPECT_EQ(section.offset % page, 0u) << section.name;
        EXPECT_TRUE(section.crcOk) << section.name;
        EXPECT_LE(section.offset + section.size, info.fileBytes)
            << section.name;
    }
}

TEST_F(V3Container, InspectFlagsDamagedSectionWithoutThrowing)
{
    MgzInfo clean = inspectMgz3(bytes_->data(), bytes_->size(), "test");
    // Flip one byte inside the *payload* of the largest section.
    const MgzSectionInfo* victim = nullptr;
    for (const MgzSectionInfo& section : clean.sections) {
        if (section.size > 0
            && (victim == nullptr || section.size > victim->size)) {
            victim = &section;
        }
    }
    ASSERT_NE(victim, nullptr);
    std::vector<uint8_t> damaged = *bytes_;
    damaged[victim->offset + victim->size / 2] ^= 0x40;
    MgzInfo info = inspectMgz3(damaged.data(), damaged.size(), "test");
    EXPECT_FALSE(info.allChecksumsOk());
    size_t bad = 0;
    for (const MgzSectionInfo& section : info.sections) {
        bad += section.crcOk ? 0 : 1;
    }
    EXPECT_EQ(bad, 1u);
}

TEST_F(V3Container, StructuralDamageRejected)
{
    auto expect_rejected = [&](const std::string& name,
                               std::vector<uint8_t> bytes) {
        std::string path = writeMutant(name, std::move(bytes));
        EXPECT_THROW(loadPangenome(path), util::Error) << name;
    };

    { // bad magic
        std::vector<uint8_t> b = *bytes_;
        b[0] = 'X';
        expect_rejected("magic", std::move(b));
    }
    { // wrong format version
        std::vector<uint8_t> b = *bytes_;
        b[4] = 9;
        expect_rejected("version", std::move(b));
    }
    { // wrong page size
        std::vector<uint8_t> b = *bytes_;
        b[8] = 0x00;
        b[9] = 0x08; // 2048
        expect_rejected("page", std::move(b));
    }
    { // wrong section count
        std::vector<uint8_t> b = *bytes_;
        b[12] = 3;
        expect_rejected("count", std::move(b));
    }
    { // corrupt section table (offset of section 1 bumped: overlap /
      // non-canonical placement *and* a table CRC mismatch)
        std::vector<uint8_t> b = *bytes_;
        b[32 + 40 + 16] ^= 0x01;
        expect_rejected("table", std::move(b));
    }
    { // truncated: header only
        std::vector<uint8_t> b(bytes_->begin(), bytes_->begin() + 64);
        expect_rejected("header_only", std::move(b));
    }
    { // truncated: drop the last page (file size mismatch)
        std::vector<uint8_t> b(bytes_->begin(), bytes_->end() - 4096);
        expect_rejected("truncated", std::move(b));
    }
    { // extended: trailing garbage breaks canonical placement
        std::vector<uint8_t> b = *bytes_;
        b.resize(b.size() + 4096, 0xAB);
        expect_rejected("extended", std::move(b));
    }
}

// 400 randomly damaged containers: every one either loads (damage landed
// in inter-section padding) or fails with a structured error.  Never a
// crash, never an unstructured exception.
TEST_F(V3Container, DamagedContainerFuzz400)
{
    std::mt19937_64 rng(0xDA4A6EDull);
    std::uniform_int_distribution<size_t> pick_offset(0,
                                                      bytes_->size() - 1);
    std::uniform_int_distribution<int> pick_bit(0, 7);
    std::string path = testPath("mmapv3_fuzz.mgz3");

    LoadOptions options;
    options.verifySectionCrcs = true;

    size_t loaded = 0;
    size_t rejected = 0;
    for (int round = 0; round < 400; ++round) {
        std::vector<uint8_t> damaged = *bytes_;
        if (round % 4 == 3) {
            // Truncate to a random prefix (possibly unmappable: empty).
            size_t keep = pick_offset(rng);
            damaged.resize(keep);
        } else {
            // Flip 1-3 random bits.
            int flips = 1 + round % 3;
            for (int i = 0; i < flips; ++i) {
                damaged[pick_offset(rng)] ^=
                    static_cast<uint8_t>(1u << pick_bit(rng));
            }
        }
        writeFileBytes(path, damaged);
        try {
            IndexedPangenome pg = loadPangenome(path, options);
            // Loaded clean: damage fell into padding.  The pangenome
            // must still be fully usable.
            EXPECT_EQ(pg.graph.numNodes(),
                      world_->set.pangenome.graph.numNodes());
            ++loaded;
        } catch (const util::Error&) {
            ++rejected; // structured rejection is the expected outcome
        }
    }
    EXPECT_EQ(loaded + rejected, 400u);
    // With full-CRC verification on, nearly all mutations must be caught;
    // only padding hits can slip through.
    EXPECT_GT(rejected, 300u);
}

// Targeted damage: a flipped bit inside any section's payload is caught
// by that section's CRC and reported under its name — every section of
// the table, not only the ones random flips happen to land in.
TEST_F(V3Container, DamageInEverySectionNamesThatSection)
{
    const MgzInfo clean = inspectMgz3(bytes_->data(), bytes_->size(), "t");
    ASSERT_EQ(sectionNames(clean), kV3Sections);
    LoadOptions options;
    options.verifySectionCrcs = true;
    std::mt19937_64 rng(0x5EC7105ull);
    for (const MgzSectionInfo& section : clean.sections) {
        ASSERT_GT(section.size, 0u) << section.name;
        for (int round = 0; round < 8; ++round) {
            std::vector<uint8_t> damaged = *bytes_;
            damaged[section.offset + rng() % section.size] ^=
                static_cast<uint8_t>(1u << (rng() % 8));
            const std::string path = writeMutant("section", damaged);
            try {
                loadPangenome(path, options);
                ADD_FAILURE() << "flip in " << section.name << " loaded";
            } catch (const util::StatusError& error) {
                EXPECT_EQ(error.status().code,
                          util::StatusCode::ChecksumMismatch)
                    << section.name;
                EXPECT_EQ(error.status().section, section.name);
            }
        }
    }
}

TEST_F(V3Container, PreviousRevisionIsRefusedNamingTheRevision)
{
    // A revision-5 file (varint edges, every minimizer hit in min.pos)
    // carries 5 in the revision field.  It must be refused on that field,
    // before its section table is read against the wrong layout.
    std::vector<uint8_t> old = *bytes_;
    old[4] = 5;
    const std::string path = writeMutant("revision5", old);
    for (const bool deep : {false, true}) {
        const util::Status status = validatePangenomeFile(path, deep);
        EXPECT_EQ(status.code, util::StatusCode::Corrupt);
        EXPECT_NE(status.message.find("unsupported MGZ3 layout revision 5"),
                  std::string::npos)
            << status.message;
    }
    try {
        loadPangenome(path);
        FAIL() << "a revision-5 container must not load";
    } catch (const util::StatusError& error) {
        EXPECT_EQ(error.status().code, util::StatusCode::Corrupt);
        EXPECT_EQ(error.status().section, "header");
        EXPECT_NE(std::string(error.what()).find("revision 5"),
                  std::string::npos)
            << error.what();
    }
}

TEST_F(V3Container, MappedBindHoldsNoPathsAndCountsItsHeap)
{
    IndexedPangenome pg = loadPangenome(world_->v3Path);
    EXPECT_EQ(pg.graph.numPaths(), 0u);
    EXPECT_EQ(pg.graph.paths().capacity(), 0u);
    EXPECT_EQ(pg.gbwt.numPaths(),
              2 * world_->set.pangenome.graph.numPaths());
    // Every structure binds onto the mapping: a generation costs no heap.
    EXPECT_EQ(pg.info.heapBytes, 0u);
    EXPECT_EQ(pg.graph.heapBytes(), 0u);
    EXPECT_GT(pg.graph.numEdges(), 0u);
    EXPECT_TRUE(pg.graph.edgeTargets().isMapped());
}

// --------------------------------------------------------------------
// Limits of the 32-bit fields, at build and at bind.

TEST(V3Limits, ThirtyTwoBitFieldsFitUpToTheirMaximum)
{
    // Every 32-bit offset a builder stores goes through fitU32.
    EXPECT_EQ(util::fitU32(0, "seq.offsets"), 0u);
    EXPECT_EQ(util::fitU32(UINT32_MAX, "gbwt.offsets"), UINT32_MAX);
    try {
        util::fitU32(uint64_t{UINT32_MAX} + 1, "gbwt.docoffs");
        FAIL() << "2^32 must not fit a 32-bit field";
    } catch (const util::StatusError& error) {
        EXPECT_EQ(error.status().code, util::StatusCode::InvalidArgument);
        EXPECT_EQ(error.status().section, "gbwt.docoffs");
    }
}

/**
 * Bind-side limits: each case rewrites one element of one section (and
 * re-stamps the section and table CRCs, so only the structural check
 * can object), then loads with full CRC verification.
 */
class V3BindLimits : public V3Container
{
  protected:
    /** The clean container's table entry for `name`, with its index. */
    static std::pair<size_t, MgzSectionInfo>
    section(const std::string& name)
    {
        const MgzInfo info =
            inspectMgz3(bytes_->data(), bytes_->size(), "t");
        const size_t i = static_cast<size_t>(
            std::find(kV3Sections.begin(), kV3Sections.end(), name) -
            kV3Sections.begin());
        return {i, info.sections.at(i)};
    }

    template <typename T>
    static T
    element(const std::string& name, size_t index)
    {
        T value;
        std::memcpy(&value,
                    bytes_->data() + section(name).second.offset +
                        index * sizeof(T),
                    sizeof(T));
        return value;
    }

    template <typename T>
    static std::vector<uint8_t>
    patched(const std::string& name, size_t index, T value)
    {
        std::vector<uint8_t> bytes = *bytes_;
        const auto [i, entry] = section(name);
        EXPECT_LE((index + 1) * sizeof(T), entry.size) << name;
        std::memcpy(bytes.data() + entry.offset + index * sizeof(T), &value,
                    sizeof(T));
        // Re-stamp the section CRC (table entry i, +32) and the table CRC.
        const uint32_t crc = util::crc32(bytes.data() + entry.offset,
                                         entry.size);
        std::memcpy(bytes.data() + 32 + i * 40 + 32, &crc, sizeof(crc));
        const uint32_t table_crc =
            util::crc32(bytes.data() + 32, kV3Sections.size() * 40);
        std::memcpy(bytes.data() + 24, &table_crc, sizeof(table_crc));
        return bytes;
    }

    /** `status` names the image bind() loaded, section `name` and the
     *  file offset of that section's byte `byte`. */
    static void
    expectAt(const util::Status& status, const std::string& name,
             uint64_t byte)
    {
        EXPECT_EQ(status.section, name) << status.message;
        EXPECT_EQ(status.file, testPath("mmapv3_mut_limit.mgz3"));
        EXPECT_EQ(status.offset, section(name).second.offset + byte)
            << status.message;
    }

    /** Load a patched image; returns the rejection, or Ok if it bound. */
    util::Status
    bind(const std::vector<uint8_t>& bytes) const
    {
        const std::string path = writeMutant("limit", bytes);
        LoadOptions options;
        options.verifySectionCrcs = true;
        try {
            IndexedPangenome pg = loadPangenome(path, options);
            return {};
        } catch (const util::StatusError& error) {
            return error.status();
        } catch (const util::Error& error) {
            util::Status status;
            status.code = util::StatusCode::Internal; // unstructured
            status.message = error.what();
            return status;
        }
    }
};

TEST_F(V3BindLimits, PackedPositionsMustLandInsideTheGraph)
{
    const graph::VariationGraph& graph = world_->set.pangenome.graph;
    const graph::NodeId last = graph.numNodes();
    const auto length = static_cast<uint32_t>(graph.length(last));
    // The exact limit binds: the last base of the last node, either
    // strand.
    for (const bool reverse : {false, true}) {
        const uint64_t edge = index::packPosition(
            {graph::Handle(last, reverse), length - 1});
        EXPECT_TRUE(bind(patched("min.pos", 0, edge)).ok());
    }
    // One past, in offset and in node id, does not.
    for (const graph::Position& pos :
         {graph::Position{graph::Handle(last, false), length},
          graph::Position{graph::Handle(last + 1, false), 0},
          graph::Position{graph::Handle(0, true), 0}}) {
        const util::Status status =
            bind(patched("min.pos", 0, index::packPosition(pos)));
        EXPECT_EQ(status.code, util::StatusCode::Corrupt) << pos.str();
        expectAt(status, "min.pos", 0);
    }
}

TEST_F(V3BindLimits, OffsetTablesMustEndExactlyAtTheirArena)
{
    // The last entry of every offset table is its arena's size: that
    // binds, one more does not (for the sequence table, that would give
    // the last node strands of different lengths).
    for (const char* name :
         {"seq.offsets", "gbwt.offsets", "gbwt.docoffs", "edges.offsets"}) {
        const size_t last = section(name).second.size / sizeof(uint32_t) - 1;
        const uint32_t end = element<uint32_t>(name, last);
        EXPECT_TRUE(bind(patched(name, last, end)).ok()) << name;
        const util::Status past = bind(patched(name, last, end + 1));
        EXPECT_FALSE(past.ok()) << name;
        EXPECT_NE(past.message.find(name), std::string::npos)
            << past.message;
    }
}

TEST_F(V3BindLimits, InlinePositionsMustLandInsideTheGraph)
{
    const graph::VariationGraph& graph = world_->set.pangenome.graph;
    const graph::NodeId last = graph.numNodes();
    const auto length = static_cast<uint32_t>(graph.length(last));
    // The first bucket holding a single hit inline (its second word).
    const size_t num_buckets =
        section("min.table").second.size / sizeof(index::MinimizerBucket);
    size_t slot = num_buckets;
    for (size_t i = 0; i < num_buckets && slot == num_buckets; ++i) {
        const auto value = element<uint64_t>("min.table", 2 * i + 1);
        if (value != 0 && (value & index::MinimizerBucket::kPooled) == 0) {
            slot = 2 * i + 1;
        }
    }
    ASSERT_LT(slot, 2 * num_buckets);
    const uint64_t limit =
        index::packPosition({graph::Handle(last, true), length - 1});
    EXPECT_TRUE(bind(patched("min.table", slot, limit)).ok());
    for (const graph::Position& pos :
         {graph::Position{graph::Handle(last, false), length},
          graph::Position{graph::Handle(last + 1, false), 0},
          graph::Position{graph::Handle(0, true), 0}}) {
        const util::Status status =
            bind(patched("min.table", slot, index::packPosition(pos)));
        EXPECT_EQ(status.code, util::StatusCode::Corrupt) << pos.str();
        expectAt(status, "min.table",
                 (slot / 2) * sizeof(index::MinimizerBucket));
    }
}

TEST_F(V3BindLimits, PooledSpansMustStayInsideMinPos)
{
    // The pooled bucket whose span ends min.pos: moved one position on,
    // it runs past the table.
    const size_t num_positions =
        section("min.pos").second.size / sizeof(uint64_t);
    const size_t num_buckets =
        section("min.table").second.size / sizeof(index::MinimizerBucket);
    size_t slot = 0;
    uint64_t value = 0;
    for (size_t i = 0; i < num_buckets; ++i) {
        index::MinimizerBucket bucket;
        bucket.value = element<uint64_t>("min.table", 2 * i + 1);
        if (bucket.pooled() &&
            bucket.first() + size_t{bucket.count()} == num_positions) {
            slot = 2 * i + 1;
            value = bucket.value;
        }
    }
    ASSERT_NE(value, 0u);
    EXPECT_TRUE(bind(patched("min.table", slot, value)).ok());
    const util::Status status = bind(patched("min.table", slot, value + 1));
    EXPECT_EQ(status.code, util::StatusCode::Corrupt) << status.message;
    expectAt(status, "min.table",
             (slot / 2) * sizeof(index::MinimizerBucket));
}

TEST_F(V3BindLimits, EdgeOffsetsMustNotDecrease)
{
    // Raise one interior offset above its successor's.
    const size_t num_offsets =
        section("edges.offsets").second.size / sizeof(uint32_t);
    const size_t mid = num_offsets / 2;
    const uint32_t next = element<uint32_t>("edges.offsets", mid + 1);
    EXPECT_TRUE(
        bind(patched("edges.offsets", mid, element<uint32_t>(
                                               "edges.offsets", mid)))
            .ok());
    const util::Status status =
        bind(patched("edges.offsets", mid, next + 1));
    EXPECT_EQ(status.code, util::StatusCode::Corrupt) << status.message;
    // Reported at the entry that falls below its predecessor.
    expectAt(status, "edges.offsets", (mid + 1) * sizeof(uint32_t));
}

TEST_F(V3BindLimits, SuccessorsMustBeNodesOfTheGraph)
{
    const graph::NodeId last = world_->set.pangenome.graph.numNodes();
    const auto packed = [](graph::Handle handle) {
        return graph::PackedHandle{static_cast<uint32_t>(handle.packed())};
    };
    EXPECT_TRUE(bind(patched("edges", 0, packed({last, true}))).ok());
    for (const graph::Handle handle :
         {graph::Handle(last + 1, false), graph::Handle(0, true)}) {
        const util::Status status = bind(patched("edges", 0, packed(handle)));
        EXPECT_EQ(status.code, util::StatusCode::Corrupt) << handle.str();
        expectAt(status, "edges", 0);
    }
}

TEST_F(V3BindLimits, ChainCoordinatesMustFitInt32)
{
    const graph::VariationGraph& graph = world_->set.pangenome.graph;
    const auto length = static_cast<int32_t>(graph.length(1));
    // Node 1's last base at coordinate INT32_MAX: the exact limit.
    EXPECT_TRUE(bind(patched("dist.min", 0, INT32_MAX - length)).ok());
    for (const int32_t past : {INT32_MAX - length + 1, int32_t{-1}}) {
        const util::Status status = bind(patched("dist.min", 0, past));
        EXPECT_EQ(status.code, util::StatusCode::Corrupt);
        expectAt(status, "dist.min", 0);
    }
}

// --------------------------------------------------------------------
// Page-cache sharing: a second consumer of the same container finds the
// pages already resident — the kernel backs every mapping of the file
// with one physical copy.

TEST_F(V3Container, SecondProcessFindsPagesAlreadyResident)
{
    // Child process: map the container and touch every page, then exit.
    pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        auto mapping = mem::MappedFile::open(world_->v3Path);
        uint64_t sum = 0;
        for (size_t i = 0; i < mapping->size(); i += 512) {
            sum += mapping->data()[i];
        }
        _exit(sum == 0xFFFFFFFFu ? 1 : 0);
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 0);

    // Parent: a fresh mapping of the same file reports the pages resident
    // *before* touching a single byte — they are the child's pages,
    // shared through the page cache.
    auto mapping = mem::MappedFile::open(world_->v3Path);
    size_t resident = mapping->residentBytes();
    EXPECT_GE(resident, mapping->size() / 2)
        << "expected the child's page-cache copy to back this mapping";
}

// --------------------------------------------------------------------
// Serving from a mapped container: two daemon instances over one v3
// file — the mgd deployment shape — answer identically, report the mmap
// load mode, and share the container's pages.

TEST_F(V3Container, TwoDaemonsShareOneMappedContainer)
{
    IndexedPangenome pg1 = loadPangenome(world_->v3Path);
    IndexedPangenome pg2 = loadPangenome(world_->v3Path);
    ASSERT_EQ(pg1.info.mode, LoadMode::Mapped);
    ASSERT_EQ(pg2.info.mode, LoadMode::Mapped);

    auto make_params = [](const std::string& name) {
        serve::DaemonParams params;
        params.socketPath = testPath(name + ".sock");
        params.workers = 2;
        params.queueCapacity = 16;
        return params;
    };
    // The daemons own their pangenomes; keep the mappings to look at
    // their residency afterwards.
    const std::shared_ptr<mem::MappedFile> mapping1 = pg1.mapping;
    const std::shared_ptr<mem::MappedFile> mapping2 = pg2.mapping;
    serve::Daemon daemon1(std::move(pg1), world_->v3Path,
                          make_params("mmapv3_d1"));
    serve::Daemon daemon2(std::move(pg2), world_->v3Path,
                          make_params("mmapv3_d2"));
    daemon1.start();
    daemon2.start();

    std::vector<map::Read> reads(world_->set.reads.reads.begin(),
                                 world_->set.reads.reads.begin()
                                     + std::min<size_t>(
                                         24,
                                         world_->set.reads.reads.size()));
    auto map_through = [&](const serve::Daemon& daemon) {
        serve::ClientParams cparams;
        cparams.socketPath = daemon.params().socketPath;
        serve::Client client(cparams);
        serve::Response response;
        util::Status status = client.mapReads(
            "default", reads, resilience::WorkBudget(), response);
        EXPECT_TRUE(status.ok()) << status.message;
        EXPECT_EQ(response.status, serve::ResponseStatus::Ok);
        return response.gaf;
    };
    std::string gaf1 = map_through(daemon1);
    std::string gaf2 = map_through(daemon2);
    EXPECT_FALSE(gaf1.empty());
    EXPECT_EQ(gaf1, gaf2)
        << "two daemons on one container must answer identically";

    daemon1.stop();
    daemon2.stop();
    EXPECT_EQ(daemon1.report().indexLoadMode, "mmap");
    EXPECT_EQ(daemon2.report().indexLoadMode, "mmap");
    EXPECT_EQ(daemon1.report().completed, 1u);
    EXPECT_EQ(daemon2.report().completed, 1u);

    // The RSS story: both instances are backed by the same page-cache
    // copy, so each mapping reports (shared) resident pages while the
    // per-process unique cost of the second instance is ~zero.  mincore
    // sees page-cache residency, which is exactly the shared copy.
    size_t resident1 = mapping1->residentBytes();
    size_t resident2 = mapping2->residentBytes();
    EXPECT_GT(resident1, 0u);
    EXPECT_GT(resident2, 0u);
    EXPECT_EQ(mapping1->size(), mapping2->size());
}

} // namespace
} // namespace mg::io
