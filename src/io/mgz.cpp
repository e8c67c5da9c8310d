#include "io/mgz.h"

#include <algorithm>
#include <array>

#include "fault/fault.h"
#include "io/file.h"
#include "io/mgz_sections.h"
#include "util/common.h"
#include "util/crc32.h"
#include "util/cursor.h"
#include "util/dna.h"
#include "util/varint.h"

namespace mg::io {

namespace {

constexpr char kMagicV2[4] = { 'M', 'G', 'Z', '2' };
constexpr char kMagicV3[4] = { 'M', 'G', 'Z', '3' };

constexpr std::array<const char*, 4> kSectionNames = {
    "nodes", "edges", "paths", "gbwt"
};

void
encodeSequence(util::ByteWriter& writer, std::string_view seq)
{
    writer.putVarint(seq.size());
    uint8_t byte = 0;
    int filled = 0;
    for (char c : seq) {
        byte |= static_cast<uint8_t>(util::baseCode(c) << (2 * filled));
        if (++filled == 4) {
            writer.putByte(byte);
            byte = 0;
            filled = 0;
        }
    }
    if (filled > 0) {
        writer.putByte(byte);
    }
}

std::string
decodeSequence(util::ByteCursor& cursor)
{
    uint64_t length = cursor.getVarint();
    cursor.check(length <= cursor.remaining() * 4, util::StatusCode::Corrupt,
                 "sequence length exceeds remaining payload");
    std::string seq(length, 'A');
    uint8_t byte = 0;
    for (uint64_t i = 0; i < length; ++i) {
        if (i % 4 == 0) {
            byte = cursor.getByte();
        }
        seq[i] = util::codeBase((byte >> (2 * (i % 4))) & 3);
    }
    return seq;
}

// --- Section payload writers -------------------------------------------

void
encodeNodesSection(util::ByteWriter& writer,
                   const graph::VariationGraph& graph)
{
    writer.putVarint(graph.numNodes());
    for (graph::NodeId id = 1; id <= graph.numNodes(); ++id) {
        encodeSequence(writer, graph.forwardSequence(id));
    }
}

} // namespace

namespace detail {

void
encodeEdgesSection(util::ByteWriter& writer,
                   const graph::VariationGraph& graph)
{
    // Forward handles only; twins are implicit.  Collected as
    // (from.packed, to.packed), delta coded on `from`.
    std::vector<std::pair<uint64_t, uint64_t>> edges;
    for (graph::NodeId id = 1; id <= graph.numNodes(); ++id) {
        for (bool reverse : {false, true}) {
            graph::Handle from(id, reverse);
            for (graph::Handle to : graph.successors(from)) {
                // Each bidirected edge is stored once via the
                // lexicographically smaller of (edge, twin).
                auto key = std::make_pair(from.packed(), to.packed());
                auto twin = std::make_pair(to.flip().packed(),
                                           from.flip().packed());
                if (key <= twin) {
                    edges.emplace_back(key);
                }
            }
        }
    }
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    writer.putVarint(edges.size());
    uint64_t prev_from = 0;
    for (const auto& [from, to] : edges) {
        writer.putVarint(from - prev_from);
        writer.putVarint(to);
        prev_from = from;
    }
}

void
decodeEdgesSection(util::ByteCursor& cursor, graph::VariationGraph& graph)
{
    uint64_t num_edges = cursor.getVarint();
    cursor.check(num_edges <= cursor.remaining(), util::StatusCode::Corrupt,
                 "edge count exceeds remaining payload");
    uint64_t prev_from = 0;
    for (uint64_t i = 0; i < num_edges; ++i) {
        prev_from += cursor.getVarint();
        uint64_t to = cursor.getVarint();
        graph.addEdge(graph::Handle::fromPacked(prev_from),
                      graph::Handle::fromPacked(to));
    }
}

} // namespace detail

namespace {

/** Named haplotype paths, zigzag-delta-coded steps (v2 only). */
void
encodePathsSection(util::ByteWriter& writer,
                   const graph::VariationGraph& graph)
{
    writer.putVarint(graph.numPaths());
    for (const graph::PathEntry& path : graph.paths()) {
        writer.putString(path.name);
        writer.putVarint(path.steps.size());
        int64_t prev = 0;
        for (graph::Handle step : path.steps) {
            // Consecutive path nodes have nearby ids; zigzag the delta.
            writer.putSignedVarint(static_cast<int64_t>(step.packed()) -
                                   prev);
            prev = static_cast<int64_t>(step.packed());
        }
    }
}

/** Inverse of encodePathsSection; addPath() checks every step. */
void
decodePathsSection(util::ByteCursor& cursor, graph::VariationGraph& graph)
{
    uint64_t num_paths = cursor.getVarint();
    cursor.check(num_paths <= cursor.remaining(), util::StatusCode::Corrupt,
                 "path count exceeds remaining payload");
    for (uint64_t i = 0; i < num_paths; ++i) {
        std::string name = cursor.getString();
        uint64_t num_steps = cursor.getVarint();
        cursor.check(num_steps <= cursor.remaining(),
                     util::StatusCode::Corrupt,
                     "path step count exceeds remaining payload");
        std::vector<graph::Handle> steps;
        steps.reserve(num_steps);
        int64_t packed = 0;
        for (uint64_t s = 0; s < num_steps; ++s) {
            packed += cursor.getSignedVarint();
            steps.push_back(
                graph::Handle::fromPacked(static_cast<uint64_t>(packed)));
        }
        graph.addPath(std::move(name), std::move(steps));
    }
}

// --- Section payload readers -------------------------------------------

void
decodeNodesSection(util::ByteCursor& cursor, Pangenome& out)
{
    uint64_t num_nodes = cursor.getVarint();
    cursor.check(num_nodes <= cursor.remaining(), util::StatusCode::Corrupt,
                 "node count exceeds remaining payload");
    for (uint64_t i = 0; i < num_nodes; ++i) {
        out.graph.addNode(decodeSequence(cursor));
    }
}

uint32_t
getCrc32Le(util::ByteCursor& cursor)
{
    uint8_t raw[4];
    cursor.getBytes(raw, sizeof(raw));
    return static_cast<uint32_t>(raw[0]) |
           static_cast<uint32_t>(raw[1]) << 8 |
           static_cast<uint32_t>(raw[2]) << 16 |
           static_cast<uint32_t>(raw[3]) << 24;
}

/**
 * Walk one V2 section header: enters the section on `cursor`, verifies
 * the size fits, and returns the payload span with its stored CRC.  The
 * cursor is left positioned after the section.
 */
MgzSectionInfo
walkSection(util::ByteCursor& cursor, const char* name)
{
    cursor.enterSection(name);
    MgzSectionInfo info;
    info.name = name;
    info.size = cursor.getVarint();
    cursor.check(info.size <= cursor.remaining() &&
                 cursor.remaining() - info.size >= 4,
                 util::StatusCode::Truncated,
                 "section of ", info.size, " bytes exceeds remaining file");
    info.offset = cursor.pos();
    cursor.seek(cursor.pos() + info.size);
    info.crcStored = getCrc32Le(cursor);
    info.crcComputed =
        util::crc32(cursor.data() + info.offset, info.size);
    info.crcOk = info.crcStored == info.crcComputed;
    return info;
}

} // namespace

bool
MgzInfo::allChecksumsOk() const
{
    return std::all_of(sections.begin(), sections.end(),
                       [](const MgzSectionInfo& s) { return s.crcOk; });
}

std::vector<uint8_t>
encodeMgz(const graph::VariationGraph& graph, const gbwt::Gbwt& gbwt)
{
    std::array<util::ByteWriter, 4> payloads;
    encodeNodesSection(payloads[0], graph);
    detail::encodeEdgesSection(payloads[1], graph);
    encodePathsSection(payloads[2], graph);
    gbwt.save(payloads[3]);

    util::ByteWriter out;
    out.putBytes(kMagicV2, sizeof(kMagicV2));
    for (const util::ByteWriter& payload : payloads) {
        out.putVarint(payload.size());
        out.putBytes(payload.bytes().data(), payload.size());
        uint32_t crc = util::crc32(payload.bytes().data(), payload.size());
        out.putByte(static_cast<uint8_t>(crc));
        out.putByte(static_cast<uint8_t>(crc >> 8));
        out.putByte(static_cast<uint8_t>(crc >> 16));
        out.putByte(static_cast<uint8_t>(crc >> 24));
    }
    return out.takeBytes();
}

Pangenome
decodeMgz(const std::vector<uint8_t>& bytes, std::string_view file)
{
    // Fault point: simulates a damaged container reaching the decoder
    // (the hardened paths below must turn it into a structured error).
    std::optional<std::vector<uint8_t>> injected =
        fault::corrupted("io.mgz.decode", bytes);
    const std::vector<uint8_t>& input = injected ? *injected : bytes;

    util::ByteCursor cursor(input, file);
    cursor.enterSection("magic");
    char magic[4];
    cursor.getBytes(magic, sizeof(magic));

    cursor.check(!std::equal(magic, magic + 4, kMagicV3),
                 util::StatusCode::InvalidArgument,
                 "MGZ v3 containers are memory-mapped; load this file "
                 "through loadPangenome()");
    cursor.check(std::equal(magic, magic + 4, kMagicV2),
                 util::StatusCode::Corrupt, "not an MGZ file (bad magic)");

    Pangenome out;
    for (const char* name : kSectionNames) {
        MgzSectionInfo info = walkSection(cursor, name);
        if (!info.crcOk) {
            util::Status status;
            status.code = util::StatusCode::ChecksumMismatch;
            status.message = util::cat(
                "section checksum mismatch (stored ", info.crcStored,
                ", computed ", info.crcComputed, ")");
            status.file = std::string(file);
            status.section = name;
            status.offset = info.offset;
            util::throwStatus(std::move(status));
        }
        util::ByteCursor section(input.data() + info.offset, info.size,
                                 file);
        section.enterSection(name);
        if (name == kSectionNames[0]) {
            decodeNodesSection(section, out);
        } else if (name == kSectionNames[1]) {
            detail::decodeEdgesSection(section, out.graph);
        } else if (name == kSectionNames[2]) {
            decodePathsSection(section, out.graph);
        } else {
            out.gbwt = gbwt::Gbwt::load(section);
        }
        section.check(section.atEnd(), util::StatusCode::Corrupt,
                      "trailing bytes in section");
    }
    cursor.enterSection("trailer");
    cursor.check(cursor.atEnd(), util::StatusCode::Corrupt,
                 "trailing bytes after MGZ payload");
    return out;
}

MgzInfo
inspectMgz(const std::vector<uint8_t>& bytes, std::string_view file)
{
    util::ByteCursor cursor(bytes, file);
    cursor.enterSection("magic");
    char magic[4];
    cursor.getBytes(magic, sizeof(magic));

    MgzInfo info;
    info.fileBytes = bytes.size();
    if (std::equal(magic, magic + 4, kMagicV3)) {
        return inspectMgz3(bytes.data(), bytes.size(), file);
    }
    cursor.check(std::equal(magic, magic + 4, kMagicV2),
                 util::StatusCode::Corrupt, "not an MGZ file (bad magic)");
    info.version = MgzVersion::V2;
    for (const char* name : kSectionNames) {
        info.sections.push_back(walkSection(cursor, name));
    }
    cursor.enterSection("trailer");
    cursor.check(cursor.atEnd(), util::StatusCode::Corrupt,
                 "trailing bytes after MGZ payload");
    return info;
}

void
saveMgz(const std::string& path, const graph::VariationGraph& graph,
        const gbwt::Gbwt& gbwt)
{
    writeFileBytesDurable(path, encodeMgz(graph, gbwt));
}

Pangenome
loadMgz(const std::string& path)
{
    return decodeMgz(readFileBytes(path), path);
}

} // namespace mg::io
