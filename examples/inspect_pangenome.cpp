/**
 * @file
 * Pangenome inspection tool: maps an .mgz3 (or generates an input-set
 * analog), prints structural statistics of the graph and the GBWT — plus,
 * for files, the load time, per-section arena sizes, and the
 * resident-vs-reserved footprint of the mapped arenas — and optionally
 * exports the graph as GFA 1.0 for vg/odgi/Bandage.  Haplotypes are
 * counted from the GBWT; the container stores no graph paths, so only a
 * GFA exported from --input-set carries P lines.
 *
 * Run:  ./examples/inspect_pangenome <file.mgz3> [--gfa out.gfa]
 * Or:   ./examples/inspect_pangenome --input-set B-yeast [--gfa out.gfa]
 */
#include <algorithm>
#include <cstdio>
#include <vector>

#include "io/gfa.h"
#include "io/mgz.h"
#include "sim/input_sets.h"
#include "util/flags.h"

int
main(int argc, char** argv)
try {
    mg::util::Flags flags("inspect_pangenome");
    flags.define("input-set", "",
                 "generate this analog instead of loading a file")
         .define("gfa", "", "export the graph as GFA 1.0 to this path");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }

    mg::io::IndexedPangenome pangenome;
    bool from_file = false;
    if (!flags.str("input-set").empty()) {
        mg::sim::InputSet set = mg::sim::buildInputSet(
            mg::sim::inputSetSpec(flags.str("input-set")), 0.01);
        pangenome.graph = std::move(set.pangenome.graph);
        pangenome.gbwt = std::move(set.pangenome.gbwt);
    } else if (flags.positional().size() == 1) {
        pangenome = mg::io::loadPangenome(flags.positional()[0]);
        from_file = true;
    } else {
        std::fprintf(stderr, "usage: inspect_pangenome <file.mgz3> | "
                             "--input-set <name> [--gfa out.gfa]\n");
        return 1;
    }
    const mg::graph::VariationGraph& graph = pangenome.graph;
    const mg::gbwt::Gbwt& gbwt = pangenome.gbwt;

    // --- Graph shape. ---
    std::printf("graph: %zu nodes, %zu edges, %zu bases\n",
                graph.numNodes(), graph.numEdges(),
                graph.totalSequenceLength());
    std::vector<size_t> lengths;
    size_t max_degree = 0;
    for (mg::graph::NodeId id = 1; id <= graph.numNodes(); ++id) {
        lengths.push_back(graph.length(id));
        max_degree = std::max(
            max_degree,
            graph.successors(mg::graph::Handle(id, false)).size());
    }
    std::sort(lengths.begin(), lengths.end());
    std::printf("node length: min %zu, median %zu, max %zu; "
                "max out-degree %zu\n",
                lengths.front(), lengths[lengths.size() / 2],
                lengths.back(), max_degree);

    // --- Haplotypes, from the GBWT: it indexes every haplotype in both
    // orientations, so each step is one forward and one reverse visit. ---
    const uint64_t haplotypes = gbwt.numPaths() / 2;
    const uint64_t total_steps = gbwt.totalVisits() / 2;
    std::printf("haplotypes: %llu in the GBWT, %llu total steps, "
                "%.1f steps/haplotype\n",
                static_cast<unsigned long long>(haplotypes),
                static_cast<unsigned long long>(total_steps),
                haplotypes ? static_cast<double>(total_steps) /
                                 static_cast<double>(haplotypes)
                           : 0.0);

    // --- Packed sequence arena. ---
    const mg::graph::SequenceStore& store = graph.sequenceStore();
    size_t stored = 2 * store.totalBases(); // both strands live packed
    std::printf("sequence arena: %zu resident bytes (%zu arena + %zu "
                "offsets), %zu reserved; %.2f bits/stored base, "
                "%zu bases sanitized at ingest\n",
                store.footprintBytes(), store.arenaBytes(),
                store.offsetTableBytes(), store.reservedBytes(),
                stored ? 8.0 * static_cast<double>(store.arenaBytes()) /
                             static_cast<double>(stored)
                       : 0.0,
                store.sanitizedBases());

    // --- GBWT. ---
    std::printf("gbwt: %llu oriented paths, %llu visits, %zu compressed "
                "bytes (%.2f bytes/visit)\n",
                static_cast<unsigned long long>(gbwt.numPaths()),
                static_cast<unsigned long long>(gbwt.totalVisits()),
                gbwt.compressedBytes(),
                gbwt.totalVisits()
                    ? static_cast<double>(gbwt.compressedBytes()) /
                          static_cast<double>(gbwt.totalVisits())
                    : 0.0);

    // --- Compression vs naive storage. ---
    size_t haplotype_bases = 0;
    for (mg::graph::NodeId id = 1; id <= graph.numNodes(); ++id) {
        const uint64_t visits =
            gbwt.nodeCount(mg::graph::Handle(id, false)) +
            gbwt.nodeCount(mg::graph::Handle(id, true));
        haplotype_bases += visits / 2 * graph.length(id);
    }
    std::printf("pangenome effect: %zu haplotype bases stored as %zu "
                "graph bases (%.1fx deduplication)\n",
                haplotype_bases, graph.totalSequenceLength(),
                graph.totalSequenceLength()
                    ? static_cast<double>(haplotype_bases) /
                          static_cast<double>(graph.totalSequenceLength())
                    : 0.0);

    // --- Load accounting (file loads only). ---
    if (from_file) {
        pangenome.refreshResidency();
        const mg::io::IndexLoadInfo& info = pangenome.info;
        std::printf("load: %s in %.4f s; container %llu bytes\n",
                    mg::io::loadModeName(info.mode), info.loadSeconds,
                    static_cast<unsigned long long>(info.fileBytes));
        std::printf("footprint: %llu bytes mapped (reserved), %llu "
                    "resident in the page cache (%.1f%%); shared across "
                    "every process mapping this file; plus %llu heap "
                    "bytes (edge adjacency, private)\n",
                    static_cast<unsigned long long>(info.mappedBytes),
                    static_cast<unsigned long long>(info.residentBytes),
                    info.mappedBytes
                        ? 100.0 * static_cast<double>(info.residentBytes) /
                              static_cast<double>(info.mappedBytes)
                        : 0.0,
                    static_cast<unsigned long long>(info.heapBytes));
        for (const auto& [name, bytes] : info.sections) {
            std::printf("  section %-14s %12llu bytes\n", name.c_str(),
                        static_cast<unsigned long long>(bytes));
        }
    }

    if (!flags.str("gfa").empty()) {
        mg::io::saveGfa(flags.str("gfa"), graph);
        std::printf("wrote GFA to %s\n", flags.str("gfa").c_str());
    }
    return 0;
} catch (const mg::util::Error& e) {
    std::fprintf(stderr, "inspect_pangenome: %s\n", e.what());
    return 1;
}
