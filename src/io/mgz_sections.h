/**
 * @file
 * Internal MGZ section codecs shared between the v2 parser (mgz.cpp)
 * and the v3 container (mgz3.cpp).  The edge and path payloads stay
 * varint-coded in v3 — they are small, and the adjacency lists / path
 * vectors are rebuilt on the heap at load time anyway (a documented v3
 * non-goal; see DESIGN.md §3j).
 */
#pragma once

#include "graph/variation_graph.h"
#include "util/cursor.h"
#include "util/varint.h"

namespace mg::io::detail {

/** Delta-coded forward edge list (one entry per bidirected edge). */
void encodeEdgesSection(util::ByteWriter& writer,
                        const graph::VariationGraph& graph);

/** Inverse of encodeEdgesSection; adds edges through graph.addEdge(). */
void decodeEdgesSection(util::ByteCursor& cursor,
                        graph::VariationGraph& graph);

/** Named haplotype paths, zigzag-delta-coded steps. */
void encodePathsSection(util::ByteWriter& writer,
                        const graph::VariationGraph& graph);

/**
 * Inverse of encodePathsSection.  `checked` selects addPath (per-step
 * edge validation, the v2 parse path) vs addPathUnchecked (the v3
 * load path, where section CRCs vouch for consistency and the
 * O(steps x degree) edge scan would dominate an otherwise instant map).
 */
void decodePathsSection(util::ByteCursor& cursor,
                        graph::VariationGraph& graph, bool checked);

} // namespace mg::io::detail
