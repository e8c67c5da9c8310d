/**
 * @file
 * MGZ: this repository's compressed pangenome container, standing in for
 * the GBZ format the paper's pipeline consumes (substitution documented in
 * DESIGN.md).  One file holds the variation graph (2-bit packed node
 * sequences, delta-coded edges, haplotype paths) and the compressed GBWT.
 * Like GBZ, the graph is compressed at rest and node records are
 * decompressed on access at query time through the GBWT arena.
 *
 * Container layout (version 2, magic "MGZ2"):
 *
 *     "MGZ2"
 *     4 x section:            nodes, edges, paths, gbwt — in this order
 *       varint payload size
 *       payload bytes
 *       uint32 LE CRC32 of the payload
 *
 * The per-section CRC turns a bit flip anywhere in a multi-gigabyte
 * index into a structured checksum-mismatch error naming the damaged
 * section instead of an arbitrary downstream decode failure.  Any other
 * magic (including the unchecksummed pre-release "MGZ1") is rejected as
 * a Corrupt "bad magic" error.
 *
 * Version 3 ("MGZ3", usually *.mgz3) is the zero-copy substrate: a
 * page-aligned container holding every big immutable arena that mapping
 * reads — packed sequence words, GBWT record/document arenas + offsets,
 * the minimizer position and bucket tables, the distance arrays — in its
 * exact little-endian in-memory layout, so loading is mmap + pointer
 * fixup instead of deserialization (see mgz3.cpp for the layout,
 * DESIGN.md §3j for the rules).  loadPangenome() dispatches on the
 * magic: v2 parse into heap structures and build the indexes; v3 maps
 * near-instantly and N processes share one page-cache copy.
 */
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "gbwt/gbwt.h"
#include "graph/variation_graph.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "mem/arena.h"
#include "util/status.h"

namespace mg::io {

/** A loaded pangenome: graph plus haplotype index. */
struct Pangenome
{
    graph::VariationGraph graph;
    gbwt::Gbwt gbwt;
};

/** Container format revisions. */
enum class MgzVersion : uint8_t
{
    /** Sized sections with per-section CRC32 (current graph+GBWT). */
    V2 = 2,
    /** Page-aligned zero-copy arenas incl. prebuilt indexes (mmap). */
    V3 = 3,
};

/** One section as seen by inspectMgz. */
struct MgzSectionInfo
{
    const char* name;
    /** Offset of the payload within the file. */
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t crcStored = 0;
    uint32_t crcComputed = 0;
    bool crcOk = false;
};

/** Container-level structure report (see inspectMgz). */
struct MgzInfo
{
    MgzVersion version = MgzVersion::V2;
    uint64_t fileBytes = 0;
    std::vector<MgzSectionInfo> sections;

    /** All sections passed their checksum. */
    bool allChecksumsOk() const;
};

/** Serialize a pangenome into MGZ v2 bytes. */
std::vector<uint8_t> encodeMgz(const graph::VariationGraph& graph,
                               const gbwt::Gbwt& gbwt);

/**
 * Parse MGZ bytes; throws mg::util::StatusError on malformed input with
 * the failing section and offset (and `file`, when given, as provenance).
 */
Pangenome decodeMgz(const std::vector<uint8_t>& bytes,
                    std::string_view file = {});

/**
 * Verify container structure and section checksums without decoding the
 * payloads.  Structural damage (bad magic, truncated section table)
 * throws StatusError; checksum mismatches are *reported* per section so
 * a verifier can list every damaged section in one pass.
 */
MgzInfo inspectMgz(const std::vector<uint8_t>& bytes,
                   std::string_view file = {});

/** Convenience: write an .mgz file. */
void saveMgz(const std::string& path, const graph::VariationGraph& graph,
             const gbwt::Gbwt& gbwt);

/** Convenience: read an .mgz file. */
Pangenome loadMgz(const std::string& path);

// --- MGZ v3: zero-copy mapped containers -------------------------------

/** How a pangenome got into memory. */
enum class LoadMode : uint8_t
{
    /** Heap structures parsed from a v2 container + indexes built. */
    Parsed,
    /** Arenas bound directly onto a mapped v3 container. */
    Mapped,
};

/** "parsed" | "mmap" — the strings run summaries report. */
const char* loadModeName(LoadMode mode);

/** Startup accounting surfaced by inspect_pangenome and run summaries. */
struct IndexLoadInfo
{
    LoadMode mode = LoadMode::Parsed;
    /** Wall seconds from open to query-ready (includes index builds when
     *  parsed). */
    double loadSeconds = 0.0;
    /** Container size on disk. */
    uint64_t fileBytes = 0;
    /** Bytes memory-mapped (0 when parsed). */
    uint64_t mappedBytes = 0;
    /** Mapped bytes resident in the page cache at sample time. */
    uint64_t residentBytes = 0;
    /** Heap bytes the load allocated: every arena, index and the graph's
     *  adjacency and paths when parsed; the edge adjacency alone when
     *  mapped (a v3 container stores no paths). */
    uint64_t heapBytes = 0;
    /** Logical arena sizes (name, bytes), identical across load modes. */
    std::vector<std::pair<std::string, uint64_t>> sections;
};

/**
 * A query-ready pangenome: graph + GBWT + both indexes, plus the mapping
 * keeping v3 arenas alive (null when parsed) and the load accounting.
 */
struct IndexedPangenome
{
    graph::VariationGraph graph;
    gbwt::Gbwt gbwt;
    index::MinimizerIndex minimizers;
    index::DistanceIndex distance;
    std::shared_ptr<mem::MappedFile> mapping;
    IndexLoadInfo info;

    /** Re-sample resident bytes (mapped mode; cheap mincore scan). */
    void refreshResidency();
};

/** Knobs for loadPangenome(). */
struct LoadOptions
{
    /** Minimizer parameters used when indexes must be *built* (v2).
     *  v3 containers carry their build parameters and ignore these. */
    index::MinimizerParams minimizer;
    /** Worker threads for v2 index construction (0 = hardware). */
    unsigned buildThreads = 0;
    /**
     * Re-verify every v3 section CRC against the mapped bytes before
     * binding (mg_verify / fuzz harness mode).  Off by default: the fast
     * path trusts the container and relies on the structural scans only.
     */
    bool verifySectionCrcs = false;
};

/**
 * Serialize graph + GBWT + prebuilt indexes into MGZ v3 bytes.  The
 * output is a pure function of the inputs (padding zeroed, positions
 * written field-wise), so containers built with different thread counts
 * are byte-identical.
 */
std::vector<uint8_t> encodeMgz3(const graph::VariationGraph& graph,
                                const gbwt::Gbwt& gbwt,
                                const index::MinimizerIndex& minimizers,
                                const index::DistanceIndex& distance);

/** Convenience: write an .mgz3 file. */
void saveMgz3(const std::string& path, const graph::VariationGraph& graph,
              const gbwt::Gbwt& gbwt,
              const index::MinimizerIndex& minimizers,
              const index::DistanceIndex& distance);

/**
 * Structure/CRC report of v3 bytes without binding them (mg_verify).
 * Structural damage (bad magic/table, misaligned or overlapping
 * sections) throws StatusError; CRC mismatches are reported per section.
 */
MgzInfo inspectMgz3(const uint8_t* data, size_t size,
                    std::string_view file = {});

/**
 * Load any container by magic: v2 parse + index build (honouring
 * options.minimizer / buildThreads), v3 mmap + pointer fixup.  Throws
 * StatusError (malformed container) or util::Error (I/O, inconsistent
 * v3 tables).
 */
IndexedPangenome loadPangenome(const std::string& path,
                               const LoadOptions& options = {});

/**
 * Validate a container file without binding it: structure (header,
 * section table, canonical placement) plus section CRCs — every section
 * when `deep`, else only the always-decoded metadata sections (v3) or
 * the v2 stream structure.  Never throws: any damage comes back as a
 * non-Ok Status naming the file/section/offset.  This is the open half
 * of the open/validate split the hot-swap path uses to reject a corrupt
 * replacement image before touching the serving index.
 */
util::Status validatePangenomeFile(const std::string& path,
                                   bool deep = true);

} // namespace mg::io
