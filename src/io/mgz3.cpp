/**
 * @file
 * The MGZ container: a memory image you *map*, not a stream you parse.
 * Every big immutable arena is stored in its exact little-endian
 * in-memory layout at a page-aligned offset, so loading is mmap +
 * pointer fixup and N processes share one page-cache copy of the index.
 *
 * File layout (all integers little-endian):
 *
 *     offset 0   "MGZ3"
 *     offset 4   u32 layout revision (6)
 *     offset 8   u32 page size the file was laid out for (4096)
 *     offset 12  u32 section count (12)
 *     offset 16  u64 total file bytes
 *     offset 24  u32 CRC32 of the section table
 *     offset 28  u32 reserved (0)
 *     offset 32  section table: 12 x 40-byte entries
 *                  char tag[16]   zero-padded section name
 *                  u64  offset    payload start (page-aligned)
 *                  u64  size      payload bytes (excludes padding)
 *                  u32  crc32     CRC32 of the payload bytes
 *                  u32  elemSize  element stride (alignment contract)
 *
 * Sections follow in the fixed order of kSections, each starting on a
 * page boundary and zero-padded up to the next one.  The canonical
 * placement (section i starts exactly where padding after section i-1
 * ends) is *enforced* on load, which makes truncated, overlapping, or
 * reordered tables structurally invalid rather than silently accepted.
 *
 * The container holds only what mapping reads.  Revision 4 dropped the
 * haplotype paths (the GBWT holds the haplotypes; GFA export from an
 * input set keeps them as text) and the minimizer key arrays (the bucket
 * table holds every key and its span), stores each minimizer position as
 * one packed 64-bit word, and keeps every offset table and distance
 * array at 32 bits.  Revision 5 dropped the max-prefix distance array,
 * which nothing read.  Revision 6 maps what the bind used to decode or
 * spread over two arrays: the edge adjacency is a CSR table (`edges`
 * holds the packed successor handles, `edges.offsets` one u32 per
 * oriented handle), and a minimizer key with one hit keeps it inline in
 * its `min.table` bucket, so `min.pos` holds only multi-hit keys.  A
 * mapped bind allocates nothing.  A file of an earlier revision is
 * refused by revision number before anything else is read.
 *
 * Byte determinism: every arena is padding-free and produced by builders
 * whose output is independent of thread count, so the same inputs yield
 * bit-identical containers regardless of build parallelism.
 *
 * Trust model on load: the header (reserved word included), table, and
 * the small graph sections (meta and the edge table) are always
 * verified; the big arenas are verified only under
 * LoadOptions::verifySectionCrcs (mg_verify, fuzz harness).  The fast
 * path instead relies on the cheap structural scans inside the
 * bindMapped() entry points — offset monotonicity, spans in
 * bounds, bucket load factor — which are what keep "never crash on a
 * corrupt container" true without re-reading gigabytes at startup.
 */
#include "io/mgz.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstring>
#include <iterator>
#include <optional>
#include <type_traits>

#include "fault/fault.h"
#include "io/file.h"
#include "util/crc32.h"
#include "util/cursor.h"
#include "util/status.h"
#include "util/timer.h"
#include "util/varint.h"

namespace mg::io {
namespace {

// The container stores arenas verbatim, so the file layout *is* the
// in-memory layout.  Pin down every assumption that makes that legal.
static_assert(std::endian::native == std::endian::little,
              "MGZ stores little-endian arenas verbatim");
static_assert(std::is_trivially_copyable_v<index::MinimizerBucket> &&
                  sizeof(index::MinimizerBucket) == 16 &&
                  offsetof(index::MinimizerBucket, key) == 0 &&
                  offsetof(index::MinimizerBucket, value) == 8,
              "min.table maps bucket records verbatim");
static_assert(std::is_trivially_copyable_v<graph::PackedHandle> &&
                  sizeof(graph::PackedHandle) == 4,
              "edges maps packed handles verbatim");

constexpr char kMagic[4] = {'M', 'G', 'Z', '3'};
constexpr uint32_t kLayoutRevision = 6;
constexpr uint32_t kPageBytes = 4096;
constexpr size_t kTagBytes = 16;
constexpr size_t kEntryBytes = 40;
constexpr size_t kTableOffset = 32;

/** Fixed section order; the loader rejects any deviation. */
struct SectionSpec
{
    const char* tag;
    uint32_t elemSize;
};

enum Section : size_t
{
    kMeta = 0,
    kEdges,
    kEdgeOffsets,
    kSeqWords,
    kSeqOffsets,
    kGbwtArena,
    kGbwtOffsets,
    kGbwtDocArena,
    kGbwtDocOffs,
    kMinPos,
    kMinTable,
    kDistMin,
    kNumSections,
};

constexpr SectionSpec kSections[kNumSections] = {
    {"meta", 1},          {"edges", 4},         {"edges.offsets", 4},
    {"seq.words", 8},     {"seq.offsets", 4},   {"gbwt.arena", 1},
    {"gbwt.offsets", 4},  {"gbwt.docarena", 1}, {"gbwt.docoffs", 4},
    {"min.pos", 8},       {"min.table", 16},    {"dist.min", 4},
};

/** Header plus section table: the prefix parseHeader reads. */
constexpr size_t kHeaderBytes = kTableOffset + kNumSections * kEntryBytes;
static_assert(kHeaderBytes <= kPageBytes,
              "header + section table must fit in the first page");

uint64_t
alignPage(uint64_t offset)
{
    return (offset + kPageBytes - 1) & ~uint64_t{kPageBytes - 1};
}

void
writeU32(uint8_t* dst, uint32_t v)
{
    std::memcpy(dst, &v, sizeof(v));
}

void
writeU64(uint8_t* dst, uint64_t v)
{
    std::memcpy(dst, &v, sizeof(v));
}

uint32_t
readU32(const uint8_t* src)
{
    uint32_t v;
    std::memcpy(&v, src, sizeof(v));
    return v;
}

uint64_t
readU64(const uint8_t* src)
{
    uint64_t v;
    std::memcpy(&v, src, sizeof(v));
    return v;
}

/** CRC of a possibly-empty span without handing crc32 a null pointer. */
uint32_t
spanCrc(const void* data, size_t size)
{
    static const uint8_t kNone = 0;
    return util::crc32(size != 0 ? data : &kNone, size);
}

/** One parsed section-table entry. */
struct SectionView
{
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t crc = 0;
};

using SectionTable = std::array<SectionView, kNumSections>;

/**
 * Validate the header + section table of a `size`-byte container and
 * return the parsed table.  `header` holds the first `header_size` bytes
 * of the file (normally the file itself).  Enforces the canonical
 * layout: magic/revision/page size, a zero reserved word, table CRC,
 * exact section order and element sizes, page-aligned offsets placed
 * exactly where the previous section's padding ends, and a file-size
 * total that matches.  Throws StatusError with file/section provenance.
 */
SectionTable
parseHeader(const uint8_t* header, size_t header_size, size_t size,
            std::string_view file)
{
    util::ByteCursor cursor(header, header_size, file);
    cursor.enterSection("header");
    cursor.check(header_size >= sizeof(kMagic) &&
                     std::memcmp(header, kMagic, sizeof(kMagic)) == 0,
                 util::StatusCode::Corrupt,
                 "not an MGZ3 container (bad magic)");
    cursor.check(size >= kPageBytes, util::StatusCode::Truncated,
                 "container smaller than one page (", size, " bytes)");
    cursor.check(header_size >= kHeaderBytes, util::StatusCode::Truncated,
                 "header and section table cut short at ", header_size,
                 " bytes");
    const uint32_t revision = readU32(header + 4);
    cursor.check(revision == kLayoutRevision, util::StatusCode::Corrupt,
                 "unsupported MGZ3 layout revision ", revision,
                 " (this build reads revision ", kLayoutRevision,
                 "; rebuild the container)");
    const uint32_t page = readU32(header + 8);
    cursor.check(page == kPageBytes, util::StatusCode::Corrupt,
                 "container laid out for page size ", page, ", expected ",
                 kPageBytes);
    const uint32_t count = readU32(header + 12);
    cursor.check(count == kNumSections, util::StatusCode::Corrupt,
                 "expected ", size_t{kNumSections},
                 " sections, header claims ", count);
    const uint64_t file_bytes = readU64(header + 16);
    cursor.check(file_bytes == size, util::StatusCode::Truncated,
                 "header claims ", file_bytes, " bytes, file holds ", size);
    const uint32_t table_crc = readU32(header + 24);
    cursor.check(readU32(header + 28) == 0, util::StatusCode::Corrupt,
                 "reserved header word is not zero");
    cursor.check(util::crc32(header + kTableOffset,
                             kNumSections * kEntryBytes) == table_crc,
                 util::StatusCode::ChecksumMismatch,
                 "section table checksum mismatch");

    SectionTable table;
    uint64_t expected_offset = kPageBytes;
    for (size_t i = 0; i < kNumSections; ++i) {
        cursor.enterSection(kSections[i].tag);
        const uint8_t* entry = header + kTableOffset + i * kEntryBytes;
        char tag[kTagBytes] = {};
        std::strncpy(tag, kSections[i].tag, kTagBytes - 1);
        cursor.check(std::memcmp(entry, tag, kTagBytes) == 0,
                     util::StatusCode::Corrupt, "section ", i,
                     " is not the expected '", kSections[i].tag, "' entry");
        SectionView& view = table[i];
        view.offset = readU64(entry + kTagBytes);
        view.size = readU64(entry + kTagBytes + 8);
        view.crc = readU32(entry + kTagBytes + 16);
        const uint32_t elem = readU32(entry + kTagBytes + 20);
        cursor.check(elem == kSections[i].elemSize, util::StatusCode::Corrupt,
                     "element size ", elem, ", expected ",
                     kSections[i].elemSize);
        // Canonical placement: rejects overlapping, reordered, or
        // misaligned sections in one comparison.
        cursor.check(view.offset == expected_offset,
                     util::StatusCode::Corrupt, "payload at offset ",
                     view.offset, ", canonical layout puts it at ",
                     expected_offset);
        cursor.check(view.size <= size - view.offset,
                     util::StatusCode::Truncated, "payload of ", view.size,
                     " bytes runs past end of file");
        cursor.check(view.size % kSections[i].elemSize == 0,
                     util::StatusCode::Corrupt, "payload of ", view.size,
                     " bytes is not a multiple of the element size");
        expected_offset = alignPage(view.offset + view.size);
    }
    cursor.enterSection("header");
    cursor.check(expected_offset == size, util::StatusCode::Truncated,
                 "sections cover ", expected_offset, " bytes, file holds ",
                 size);
    return table;
}

void
checkSectionCrc(const uint8_t* data, std::string_view file,
                const SectionTable& table, size_t section)
{
    const SectionView& view = table[section];
    if (spanCrc(data + view.offset, view.size) != view.crc) {
        util::failSection(util::StatusCode::ChecksumMismatch,
                          {file, kSections[section].tag, view.offset},
                          "section checksum mismatch");
    }
}

/** Verify the sections every load verifies: meta and the edge table. */
void
checkSmallSectionCrcs(const uint8_t* data, std::string_view file,
                      const SectionTable& table)
{
    for (const size_t section : {kMeta, kEdges, kEdgeOffsets}) {
        checkSectionCrc(data, file, table, section);
    }
}

/**
 * Run `bind`, rethrowing a StatusError it raises with the container's
 * provenance: the file, and the bind check's offset within its section
 * rebased onto the file.
 */
template <typename Bind>
void
bindInFile(std::string_view file, const SectionTable& table, Bind&& bind)
{
    try {
        bind();
    } catch (const util::StatusError& error) {
        util::Status status = error.status();
        const auto* spec =
            std::find_if(std::begin(kSections), std::end(kSections),
                         [&](const SectionSpec& s) {
                             return status.section == s.tag;
                         });
        if (spec == std::end(kSections)) {
            throw;
        }
        status.file = std::string(file);
        status.offset += table[spec - kSections].offset;
        util::throwStatus(std::move(status));
    }
}

/** Typed pointer + element count of one mapped section. */
template <typename T>
std::pair<const T*, size_t>
sectionSpan(const uint8_t* data, const SectionTable& table, size_t section)
{
    // Page alignment (>= alignof(T) for every stored type) was enforced
    // by parseHeader, so the reinterpret_cast is well-formed.
    return {reinterpret_cast<const T*>(data + table[section].offset),
            table[section].size / sizeof(T)};
}

/**
 * Report the logical arena sizes from the *bound* structures rather than
 * the container table: what the pangenome holds, without the padding.
 */
void
fillArenaSections(IndexedPangenome& out)
{
    const graph::SequenceStore& store = out.graph.sequenceStore();
    const gbwt::Gbwt::ArenaRefs refs = out.gbwt.arenaRefs();
    out.info.sections = {
        {"edges", out.graph.edgeTargets().bytes()},
        {"edges.offsets", out.graph.edgeOffsets().bytes()},
        {"seq.words", store.words().bytes()},
        {"seq.offsets", store.offsets().bytes()},
        {"gbwt.arena", refs.arenaSize},
        {"gbwt.offsets", refs.numRecordOffsets * sizeof(uint32_t)},
        {"gbwt.docarena", refs.docArenaSize},
        {"gbwt.docoffs", refs.numDocOffsets * sizeof(uint32_t)},
        {"min.pos", out.minimizers.positions().bytes()},
        {"min.table", out.minimizers.buckets().bytes()},
        {"dist.min", out.distance.minFromSource().bytes()},
    };
}

/** Validate a mapped container and bind it into a query-ready
 *  pangenome. */
IndexedPangenome
mapPangenome(std::shared_ptr<mem::MappedFile> file,
             const LoadOptions& options)
{
    const uint8_t* data = file->data();
    const size_t size = file->size();
    const std::string_view fname = file->path();
    // Fault point: a damaged header or section table reaching the loader.
    // The mutated copy stands in for the mapped bytes the parse reads; the
    // structural checks must turn it into a structured error.
    std::optional<std::vector<uint8_t>> injected;
    if (fault::anyArmed()) {
        injected = fault::corrupted(
            "io.mgz.load", std::vector<uint8_t>(
                               data, data + std::min(size, kHeaderBytes)));
    }
    const SectionTable table =
        injected ? parseHeader(injected->data(), injected->size(), size,
                               fname)
                 : parseHeader(data, size, size, fname);

    // The small graph sections are always verified: meta is decoded, and
    // a flipped bit in the edge table that stays in range would silently
    // change the graph.  Arena verification is opt-in.
    checkSmallSectionCrcs(data, fname, table);
    if (options.verifySectionCrcs) {
        for (size_t i = 0; i < kNumSections; ++i) {
            checkSectionCrc(data, fname, table, i);
        }
    }

    util::ByteCursor meta(data + table[kMeta].offset, table[kMeta].size,
                          fname);
    meta.enterSection("meta");
    const uint64_t num_nodes = meta.getVarint();
    const uint64_t sanitized_bases = meta.getVarint();
    const uint64_t num_paths = meta.getVarint();
    const uint64_t total_visits = meta.getVarint();
    index::MinimizerParams params;
    params.k = static_cast<int>(meta.getVarint());
    params.w = static_cast<int>(meta.getVarint());
    params.maxOccurrences = meta.getVarint();
    meta.check(meta.atEnd(), util::StatusCode::Corrupt,
               "trailing bytes after meta");

    IndexedPangenome out;

    // Sequence arenas bind first; the edge table and the minimizer
    // positions are checked against the bound node set.
    auto [words, num_words] = sectionSpan<uint64_t>(data, table, kSeqWords);
    auto [offsets, num_offsets] =
        sectionSpan<uint32_t>(data, table, kSeqOffsets);
    out.graph.bindMappedSequences(file, words, num_words, offsets,
                                  num_offsets, num_nodes, sanitized_bases);
    auto [edge_offsets, num_edge_offsets] =
        sectionSpan<uint32_t>(data, table, kEdgeOffsets);
    auto [edge_targets, num_edge_targets] =
        sectionSpan<graph::PackedHandle>(data, table, kEdges);
    bindInFile(fname, table, [&] {
        out.graph.bindMappedEdges(file, edge_offsets, num_edge_offsets,
                                  edge_targets, num_edge_targets);
    });

    gbwt::Gbwt::ArenaRefs refs;
    std::tie(refs.arena, refs.arenaSize) =
        sectionSpan<uint8_t>(data, table, kGbwtArena);
    std::tie(refs.recordOffsets, refs.numRecordOffsets) =
        sectionSpan<uint32_t>(data, table, kGbwtOffsets);
    std::tie(refs.docArena, refs.docArenaSize) =
        sectionSpan<uint8_t>(data, table, kGbwtDocArena);
    std::tie(refs.docOffsets, refs.numDocOffsets) =
        sectionSpan<uint32_t>(data, table, kGbwtDocOffs);
    out.gbwt.bindMapped(file, refs, num_paths, total_visits);

    auto [positions, num_positions] =
        sectionSpan<uint64_t>(data, table, kMinPos);
    auto [buckets, num_buckets] =
        sectionSpan<index::MinimizerBucket>(data, table, kMinTable);
    bindInFile(fname, table, [&] {
        out.minimizers.bindMapped(file, params, out.graph, positions,
                                  num_positions, buckets, num_buckets);
    });

    auto [dist_min, num_min] = sectionSpan<int32_t>(data, table, kDistMin);
    if (num_min != num_nodes) {
        util::failSection(util::StatusCode::Corrupt,
                          {fname, kSections[kDistMin].tag,
                           table[kDistMin].offset},
                          "distance array holds ", num_min, " entries for ",
                          num_nodes, " nodes");
    }
    bindInFile(fname, table, [&] {
        out.distance.bindMapped(file, out.graph, dist_min, num_nodes);
    });

    out.info.mode = LoadMode::Mapped;
    out.info.fileBytes = size;
    out.info.mappedBytes = size;
    // The bind copies nothing out of the mapping: 0.
    out.info.heapBytes = out.graph.heapBytes();
    fillArenaSections(out);
    out.mapping = std::move(file);
    out.refreshResidency();
    return out;
}

} // namespace

bool
MgzInfo::allChecksumsOk() const
{
    return std::all_of(sections.begin(), sections.end(),
                       [](const MgzSectionInfo& s) { return s.crcOk; });
}

const char*
loadModeName(LoadMode)
{
    return "mmap";
}

void
IndexedPangenome::refreshResidency()
{
    if (mapping) {
        info.residentBytes = mapping->residentBytes();
    }
}

std::vector<uint8_t>
encodeMgz3(const graph::VariationGraph& graph, const gbwt::Gbwt& gbwt,
           const index::MinimizerIndex& minimizers,
           const index::DistanceIndex& distance)
{
    const graph::SequenceStore& store = graph.sequenceStore();
    const gbwt::Gbwt::ArenaRefs refs = gbwt.arenaRefs();
    const index::MinimizerParams& params = minimizers.params();
    MG_CHECK(distance.numNodes() == graph.numNodes(),
             "distance index was built for a different graph");

    util::ByteWriter meta_writer;
    meta_writer.putVarint(graph.numNodes());
    meta_writer.putVarint(graph.sanitizedBases());
    meta_writer.putVarint(gbwt.numPaths());
    meta_writer.putVarint(gbwt.totalVisits());
    meta_writer.putVarint(static_cast<uint64_t>(params.k));
    meta_writer.putVarint(static_cast<uint64_t>(params.w));
    meta_writer.putVarint(params.maxOccurrences);
    const std::vector<uint8_t> meta = meta_writer.takeBytes();

    struct Span
    {
        const void* data;
        size_t size;
    };
    const Span spans[kNumSections] = {
        {meta.data(), meta.size()},
        {graph.edgeTargets().data(), graph.edgeTargets().bytes()},
        {graph.edgeOffsets().data(), graph.edgeOffsets().bytes()},
        {store.words().data(), store.words().bytes()},
        {store.offsets().data(), store.offsets().bytes()},
        {refs.arena, refs.arenaSize},
        {refs.recordOffsets, refs.numRecordOffsets * sizeof(uint32_t)},
        {refs.docArena, refs.docArenaSize},
        {refs.docOffsets, refs.numDocOffsets * sizeof(uint32_t)},
        {minimizers.positions().data(), minimizers.positions().bytes()},
        {minimizers.buckets().data(), minimizers.buckets().bytes()},
        {distance.minFromSource().data(), distance.minFromSource().bytes()},
    };

    uint64_t offsets[kNumSections];
    uint64_t cursor = kPageBytes;
    for (size_t i = 0; i < kNumSections; ++i) {
        offsets[i] = cursor;
        cursor = alignPage(cursor + spans[i].size);
    }
    const uint64_t file_bytes = cursor;

    std::vector<uint8_t> out(file_bytes, 0);
    std::memcpy(out.data(), kMagic, sizeof(kMagic));
    writeU32(out.data() + 4, kLayoutRevision);
    writeU32(out.data() + 8, kPageBytes);
    writeU32(out.data() + 12, kNumSections);
    writeU64(out.data() + 16, file_bytes);
    for (size_t i = 0; i < kNumSections; ++i) {
        uint8_t* entry = out.data() + kTableOffset + i * kEntryBytes;
        std::strncpy(reinterpret_cast<char*>(entry), kSections[i].tag,
                     kTagBytes - 1);
        writeU64(entry + kTagBytes, offsets[i]);
        writeU64(entry + kTagBytes + 8, spans[i].size);
        writeU32(entry + kTagBytes + 16, spanCrc(spans[i].data,
                                                 spans[i].size));
        writeU32(entry + kTagBytes + 20, kSections[i].elemSize);
        if (spans[i].size != 0) {
            std::memcpy(out.data() + offsets[i], spans[i].data,
                        spans[i].size);
        }
    }
    writeU32(out.data() + 24,
             util::crc32(out.data() + kTableOffset,
                         kNumSections * kEntryBytes));
    return out;
}

void
saveMgz3(const std::string& path, const graph::VariationGraph& graph,
         const gbwt::Gbwt& gbwt, const index::MinimizerIndex& minimizers,
         const index::DistanceIndex& distance)
{
    writeFileBytesDurable(path, encodeMgz3(graph, gbwt, minimizers, distance));
}

MgzInfo
inspectMgz3(const uint8_t* data, size_t size, std::string_view file)
{
    const SectionTable table = parseHeader(data, size, size, file);
    MgzInfo info;
    info.fileBytes = size;
    info.sections.reserve(kNumSections);
    for (size_t i = 0; i < kNumSections; ++i) {
        MgzSectionInfo section;
        section.name = kSections[i].tag;
        section.offset = table[i].offset;
        section.size = table[i].size;
        section.crcStored = table[i].crc;
        section.crcComputed = spanCrc(data + table[i].offset, table[i].size);
        section.crcOk = section.crcComputed == section.crcStored;
        info.sections.push_back(section);
    }
    return info;
}

util::Status
validatePangenomeFile(const std::string& path, bool deep)
{
    try {
        std::shared_ptr<mem::MappedFile> file = mem::MappedFile::open(path);
        const uint8_t* data = file->data();
        const size_t size = file->size();
        // Structure first (throws with provenance), then CRCs: the
        // always-verified graph sections unconditionally, the big
        // arenas only in deep mode.
        const SectionTable table = parseHeader(data, size, size, path);
        if (deep) {
            for (size_t i = 0; i < kNumSections; ++i) {
                checkSectionCrc(data, path, table, i);
            }
        } else {
            checkSmallSectionCrcs(data, path, table);
        }
        return {};
    } catch (const util::StatusError& err) {
        return err.status();
    } catch (const util::Error& err) {
        util::Status status;
        status.code = util::StatusCode::IoError;
        status.message = err.what();
        status.file = path;
        return status;
    }
}

IndexedPangenome
loadPangenome(const std::string& path, const LoadOptions& options)
{
    util::WallTimer timer;
    IndexedPangenome out =
        mapPangenome(mem::MappedFile::open(path), options);
    out.info.loadSeconds = timer.seconds();
    return out;
}

} // namespace mg::io
