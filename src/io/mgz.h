/**
 * @file
 * MGZ: this repository's pangenome container, standing in for the GBZ
 * format the paper's pipeline consumes (substitution documented in
 * DESIGN.md).  One file holds the variation graph (2-bit packed node
 * sequences, a CSR edge table), the compressed GBWT, and the prebuilt
 * minimizer and distance indexes.  Like GBZ, the haplotype index is
 * compressed at rest and its records are decompressed on access at query
 * time.
 *
 * The container ("MGZ3", *.mgz3) is a page-aligned memory image: every
 * big immutable arena that mapping reads is stored in its exact
 * little-endian in-memory layout, so loading is mmap + pointer fixup
 * instead of deserialization (see mgz3.cpp for the layout, DESIGN.md §3j
 * for the rules), and N processes share one page-cache copy.  Any other
 * magic, including the retired "MGZ1"/"MGZ2" stream formats, is refused
 * as a Corrupt "bad magic" error.
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

/** One section as seen by inspectMgz3. */
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

/** Container-level structure report (see inspectMgz3). */
struct MgzInfo
{
    uint64_t fileBytes = 0;
    std::vector<MgzSectionInfo> sections;

    /** All sections passed their checksum. */
    bool allChecksumsOk() const;
};

/** How a pangenome got into memory: the one way there is. */
enum class LoadMode : uint8_t
{
    /** Arenas bound directly onto a mapped container. */
    Mapped,
};

/** "mmap" — the string run summaries report. */
const char* loadModeName(LoadMode mode);

/** Startup accounting surfaced by mg_verify and run summaries. */
struct IndexLoadInfo
{
    LoadMode mode = LoadMode::Mapped;
    /** Wall seconds from open to query-ready. */
    double loadSeconds = 0.0;
    /** Container size on disk. */
    uint64_t fileBytes = 0;
    /** Bytes memory-mapped. */
    uint64_t mappedBytes = 0;
    /** Mapped bytes resident in the page cache at sample time. */
    uint64_t residentBytes = 0;
    /** Heap bytes the load allocated: 0, since every structure binds
     *  onto the mapping (the container stores no graph paths). */
    uint64_t heapBytes = 0;
    /** Logical arena sizes (name, bytes), from the bound structures. */
    std::vector<std::pair<std::string, uint64_t>> sections;
};

/**
 * A query-ready pangenome: graph + GBWT + both indexes, plus the mapping
 * keeping the arenas alive and the load accounting.
 */
struct IndexedPangenome
{
    graph::VariationGraph graph;
    gbwt::Gbwt gbwt;
    index::MinimizerIndex minimizers;
    index::DistanceIndex distance;
    std::shared_ptr<mem::MappedFile> mapping;
    IndexLoadInfo info;

    /** Re-sample resident bytes (cheap mincore scan). */
    void refreshResidency();
};

/** Knobs for loadPangenome(). */
struct LoadOptions
{
    /**
     * Re-verify every section CRC against the mapped bytes before
     * binding (mg_verify / fuzz harness mode).  Off by default: the fast
     * path trusts the container and relies on the structural scans only.
     */
    bool verifySectionCrcs = false;
};

/**
 * Serialize graph + GBWT + prebuilt indexes into container bytes.  The
 * output is a pure function of the inputs (padding zeroed, positions
 * written field-wise), so containers built with different thread counts
 * are byte-identical.
 */
std::vector<uint8_t> encodeMgz3(const graph::VariationGraph& graph,
                                const gbwt::Gbwt& gbwt,
                                const index::MinimizerIndex& minimizers,
                                const index::DistanceIndex& distance);

/** Convenience: write an .mgz3 file (atomically published). */
void saveMgz3(const std::string& path, const graph::VariationGraph& graph,
              const gbwt::Gbwt& gbwt,
              const index::MinimizerIndex& minimizers,
              const index::DistanceIndex& distance);

/**
 * Structure/CRC report of container bytes without binding them
 * (mg_verify).  Structural damage (bad magic/table, misaligned or
 * overlapping sections) throws StatusError; CRC mismatches are reported
 * per section.
 */
MgzInfo inspectMgz3(const uint8_t* data, size_t size,
                    std::string_view file = {});

/**
 * Map a container and bind its arenas in place (mmap + pointer fixup).
 * Throws StatusError (malformed container) or util::Error (I/O,
 * inconsistent tables).
 */
IndexedPangenome loadPangenome(const std::string& path,
                               const LoadOptions& options = {});

/**
 * Validate a container file without binding it: structure (header,
 * section table, canonical placement) plus section CRCs — every section
 * when `deep`, else only the always-verified graph sections.  Never
 * throws: any damage comes back as a
 * non-Ok Status naming the file/section/offset.  This is the open half
 * of the open/validate split the hot-swap path uses to reject a corrupt
 * replacement image before touching the serving index.
 */
util::Status validatePangenomeFile(const std::string& path,
                                   bool deep = true);

} // namespace mg::io
