/**
 * @file
 * Gapless extensions: the raw mapping results.  An extension is a maximal
 * gapless local alignment of a read interval against a haplotype-supported
 * walk of the graph, with up to a budget of mismatches (Section IV-B).
 * miniGiraffe's output is exactly these extensions — "the offsets and
 * scores of each match" — which is also what the functional validation
 * compares between proxy and parent (Section VI).
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/handle.h"
#include "resilience/budget.h"
#include "util/small_vector.h"

namespace mg::map {

/** Inline path capacity: a 150 bp read over bubble-chain nodes of 1-32 bp
 *  crosses a dozen-odd nodes; 16 keeps nearly every extension heap-free. */
using ExtensionPath = util::SmallVector<graph::Handle, 16>;
/** Mismatch budget is 4 per direction, so 8 covers every extension. */
using MismatchOffsets = util::SmallVector<uint32_t, 8>;

/** One gapless extension of one seed. */
struct GaplessExtension
{
    /** Oriented nodes walked, in read order. */
    ExtensionPath path;
    /** Offset in path.front() where the alignment starts. */
    uint32_t startOffset = 0;
    /** Read interval [readBegin, readEnd) covered by the alignment. */
    uint32_t readBegin = 0;
    uint32_t readEnd = 0;
    /** Read offsets of mismatching bases, ascending. */
    MismatchOffsets mismatchOffsets;
    /** Alignment score (matches * match - mismatches * penalty + bonus). */
    int32_t score = 0;
    /** True if the extension was computed on the reverse-complement read. */
    bool onReverseRead = false;
    /** True if the whole read is covered. */
    bool fullLength = false;

    uint32_t length() const { return readEnd - readBegin; }
    uint32_t
    matches() const
    {
        return length() - static_cast<uint32_t>(mismatchOffsets.size());
    }

    /**
     * Canonical identity for validation and dedup: two extensions are the
     * same mapping iff orientation, read interval, start position, and walk
     * coincide.
     */
    friend bool
    operator==(const GaplessExtension& a, const GaplessExtension& b)
    {
        return a.onReverseRead == b.onReverseRead &&
               a.readBegin == b.readBegin && a.readEnd == b.readEnd &&
               a.startOffset == b.startOffset && a.path == b.path &&
               a.mismatchOffsets == b.mismatchOffsets;
    }

    /** Deterministic ordering: best score first, then canonical identity. */
    friend bool operator<(const GaplessExtension& a,
                          const GaplessExtension& b);

    /** Compact textual form used by output files and validation dumps. */
    std::string str() const;
};

/** The proxy's per-read output: extensions for the winning candidates. */
struct MapResult
{
    std::vector<GaplessExtension> extensions;
    /** Number of clusters formed / processed (observability for tests). */
    uint32_t clustersFormed = 0;
    uint32_t clustersProcessed = 0;
    /** Funnel telemetry: seeds actually walked (extendSeed calls) / walks
     *  cut short by the budget before the seed loop finished. */
    uint32_t extensionsAttempted = 0;
    uint32_t extensionsAborted = 0;
    /** Chosen seeds the score prefilter killed before extension started
     *  (counted instead of, not in addition to, attempted). */
    uint32_t extensionsPrefiltered = 0;
    /** Chosen seeds skipped because an earlier seed's extension already
     *  covers them — extendSeed would return exactly that extension
     *  (counted instead of, not in addition to, attempted). */
    uint32_t extensionsCovered = 0;
    /**
     * Why the read's mapping was cut short (None when it ran to
     * completion).  A degraded read still carries its best-so-far
     * extensions; downstream output tags it (GAF dg:Z:<reason>).
     */
    resilience::CancelReason degraded = resilience::CancelReason::None;
};

} // namespace mg::map
