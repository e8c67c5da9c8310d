/**
 * @file
 * GFA 1.0 interchange for variation graphs.  GFA (Graphical Fragment
 * Assembly) is the lingua franca of the pangenome ecosystem — vg, odgi,
 * and Bandage all read it — so graphs built or generated here can be
 * inspected with standard tooling, and small external graphs can be
 * imported.  Supported records: H (header), S (segment), L (link, with
 * 0M/'*' overlaps), and P (path, with the trailing overlap column
 * ignored).
 */
#pragma once

#include <string>
#include <string_view>

#include "graph/variation_graph.h"

namespace mg::io {

/** Render a variation graph (and its haplotype paths) as GFA 1.0 text. */
std::string formatGfa(const graph::VariationGraph& graph);

/**
 * Parse GFA 1.0 text into a variation graph.  Segment names must be
 * positive integers (vg convention); ids are compacted to dense 1-based
 * ids preserving numeric order.  Throws mg::util::StatusError on
 * malformed input or unsupported features (with `file`, when given, as
 * provenance and the 1-based line number as the offset).
 */
graph::VariationGraph parseGfa(const std::string& text,
                               std::string_view file = {});

/** Convenience file wrapper. */
void saveGfa(const std::string& path, const graph::VariationGraph& graph);

} // namespace mg::io
