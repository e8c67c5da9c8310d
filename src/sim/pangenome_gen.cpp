#include "sim/pangenome_gen.h"

#include <algorithm>

#include "util/common.h"
#include "util/rng.h"

namespace mg::sim {

namespace {

/** Variant-site kinds of the population model. */
enum class SiteKind
{
    Snp = 0,
    Insertion = 1,
    Deletion = 2,
    StructuralVariant = 3,
};

} // namespace

GeneratedPangenome
generatePangenome(const PangenomeParams& params)
{
    MG_CHECK(params.backboneLength >= params.meanAnchorLength * 2,
             "backbone too short for the anchor length");
    MG_CHECK(params.haplotypes >= 1, "need at least one haplotype");
    MG_CHECK(params.minIndelLength >= 1 &&
             params.minIndelLength <= params.maxIndelLength,
             "bad indel length range");
    MG_CHECK(params.minSvLength >= 1 &&
             params.minSvLength <= params.maxSvLength,
             "bad SV length range");

    util::Rng rng(params.seed);
    GeneratedPangenome out;
    graph::VariationGraph& graph = out.graph;

    const size_t num_haps = params.haplotypes;
    std::vector<std::vector<graph::Handle>> walks(num_haps);

    // Edges are collected and added in one batch before the paths.
    std::vector<std::pair<graph::Handle, graph::Handle>> edges;
    auto connect = [&](graph::NodeId from, graph::NodeId to) {
        edges.emplace_back(graph::Handle(from, false),
                           graph::Handle(to, false));
    };

    const std::vector<double> kind_weights = {
        params.snpWeight, params.insertionWeight, params.deletionWeight,
        params.svWeight,
    };

    // Repeat-motif library: planted copies make minimizers multi-map.
    std::vector<std::string> repeat_library;
    for (size_t i = 0; i < params.repeatLibrarySize; ++i) {
        repeat_library.push_back(
            rng.randomDna(params.meanAnchorLength));
    }
    auto repeat_copy = [&]() {
        std::string motif =
            repeat_library[rng.uniform(repeat_library.size())];
        for (char& c : motif) {
            if (rng.chance(params.repeatDivergence)) {
                c = rng.differentBase(c);
            }
        }
        return motif;
    };

    // Node ids whose outgoing edges connect to the next anchor; an empty
    // list means we are at the very start of the chain.
    std::vector<graph::NodeId> pending_ends;
    size_t emitted = 0;

    while (emitted < params.backboneLength) {
        // --- Anchor segment shared by every haplotype. ---
        std::string anchor_seq;
        if (!repeat_library.empty() && rng.chance(params.repeatFraction)) {
            anchor_seq = repeat_copy();
        } else {
            size_t anchor_len = std::max<size_t>(
                4, params.meanAnchorLength / 2 +
                       rng.uniform(params.meanAnchorLength));
            anchor_seq = rng.randomDna(anchor_len);
        }
        if (anchor_seq.size() > params.backboneLength - emitted) {
            anchor_seq.resize(params.backboneLength - emitted);
            if (anchor_seq.size() < 4) {
                anchor_seq = rng.randomDna(4);
            }
        }
        size_t anchor_len = anchor_seq.size();
        graph::NodeId anchor = graph.addNode(std::move(anchor_seq));
        for (graph::NodeId end : pending_ends) {
            connect(end, anchor);
        }
        pending_ends.clear();
        for (auto& walk : walks) {
            walk.push_back(graph::Handle(anchor, false));
        }
        emitted += anchor_len;
        if (emitted >= params.backboneLength) {
            break;
        }

        // --- One variant site: a bubble between this and the next anchor.
        SiteKind kind =
            static_cast<SiteKind>(rng.weightedIndex(kind_weights));
        // Allele frequency of the alternative branch at this site.
        double alt_frequency = 0.05 + 0.45 * rng.uniformReal();

        switch (kind) {
          case SiteKind::Snp: {
            char ref_base = rng.randomBase();
            graph::NodeId ref = graph.addNode(std::string(1, ref_base));
            graph::NodeId alt =
                graph.addNode(std::string(1, rng.differentBase(ref_base)));
            connect(anchor, ref);
            connect(anchor, alt);
            for (auto& walk : walks) {
                walk.push_back(graph::Handle(
                    rng.chance(alt_frequency) ? alt : ref, false));
            }
            pending_ends = { ref, alt };
            emitted += 1;
            break;
          }
          case SiteKind::Insertion: {
            // Carriers walk through an extra inserted node; others jump
            // straight from this anchor to the next one.
            size_t len = static_cast<size_t>(rng.uniformInt(
                static_cast<int64_t>(params.minIndelLength),
                static_cast<int64_t>(params.maxIndelLength)));
            graph::NodeId ins = graph.addNode(rng.randomDna(len));
            connect(anchor, ins);
            for (auto& walk : walks) {
                if (rng.chance(alt_frequency)) {
                    walk.push_back(graph::Handle(ins, false));
                }
            }
            pending_ends = { anchor, ins };
            break;
          }
          case SiteKind::Deletion: {
            // Carriers skip a reference segment the others walk through.
            size_t len = static_cast<size_t>(rng.uniformInt(
                static_cast<int64_t>(params.minIndelLength),
                static_cast<int64_t>(params.maxIndelLength)));
            graph::NodeId ref = graph.addNode(rng.randomDna(len));
            connect(anchor, ref);
            for (auto& walk : walks) {
                if (!rng.chance(alt_frequency)) {
                    walk.push_back(graph::Handle(ref, false));
                }
            }
            pending_ends = { anchor, ref };
            emitted += len;
            break;
          }
          case SiteKind::StructuralVariant: {
            // Two diverged alternative segments of different lengths.
            size_t ref_len = static_cast<size_t>(rng.uniformInt(
                static_cast<int64_t>(params.minSvLength),
                static_cast<int64_t>(params.maxSvLength)));
            size_t alt_len = static_cast<size_t>(rng.uniformInt(
                static_cast<int64_t>(params.minSvLength),
                static_cast<int64_t>(params.maxSvLength)));
            graph::NodeId ref = graph.addNode(rng.randomDna(ref_len));
            graph::NodeId alt = graph.addNode(rng.randomDna(alt_len));
            connect(anchor, ref);
            connect(anchor, alt);
            for (auto& walk : walks) {
                walk.push_back(graph::Handle(
                    rng.chance(alt_frequency) ? alt : ref, false));
            }
            pending_ends = { ref, alt };
            emitted += ref_len;
            break;
          }
        }
    }

    graph.addEdges(edges);

    // Register the haplotype walks as graph paths and spell them out.
    out.sequences.reserve(num_haps);
    for (size_t h = 0; h < num_haps; ++h) {
        graph.addPath("hap" + std::to_string(h), walks[h]);
        out.sequences.push_back(graph.pathSequence(walks[h]));
    }
    out.walks = std::move(walks);

    // Index the haplotypes.
    gbwt::GbwtBuilder builder;
    for (const auto& walk : out.walks) {
        builder.addPath(walk);
    }
    out.gbwt = std::move(builder).build();
    return out;
}

} // namespace mg::sim
