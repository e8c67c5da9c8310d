/**
 * @file
 * Internal MGZ section codec shared between the v2 parser (mgz.cpp) and
 * the v3 container (mgz3.cpp).  The edge payload stays varint-coded in
 * v3 — it is small, and the adjacency lists are rebuilt on the heap at
 * load time anyway (a documented v3 non-goal; see DESIGN.md §3j).
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

} // namespace mg::io::detail
