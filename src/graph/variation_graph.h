/**
 * @file
 * The variation graph: a bidirected sequence graph whose nodes carry DNA
 * sequences and whose paths record haplotypes (Section II-A of the paper).
 * This is the reference data structure everything else is built on: the
 * GBWT indexes its haplotype paths, the minimizer index is built from those
 * paths, and the mapping kernel walks its edges.
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/handle.h"
#include "graph/sequence_store.h"
#include "util/dna.h"

namespace mg::graph {

/** A named haplotype: a walk through the graph. */
struct PathEntry
{
    std::string name;
    std::vector<Handle> steps;
};

/**
 * In-memory variation graph with dense 1-based node ids.
 *
 * Edges connect oriented handles; adding (a -> b) implicitly creates the
 * reverse-strand edge (flip(b) -> flip(a)), so traversal is symmetric on
 * both strands.  The generated pangenomes in this repository are acyclic in
 * forward orientation (bubble chains), which topologicalOrder() exploits;
 * the structure itself does not require acyclicity.
 */
class VariationGraph
{
  public:
    /**
     * Add a node with the given non-empty sequence.  Ambiguity letters
     * (N, IUPAC codes) are canonicalized to 'A' and counted in
     * sanitizedBases(); non-letter characters throw.
     */
    NodeId addNode(std::string sequence);

    /** Add an edge between oriented handles (idempotent). */
    void addEdge(Handle from, Handle to);

    /** Register a named haplotype path; steps must be adjacent via edges. */
    void addPath(std::string name, std::vector<Handle> steps);

    size_t numNodes() const { return store_.numNodes(); }
    size_t numEdges() const { return numEdges_; }
    size_t numPaths() const { return paths_.size(); }

    bool hasNode(NodeId id) const
    {
        return id >= 1 && id <= store_.numNodes();
    }

    /** Length of a node's sequence. */
    size_t length(NodeId id) const { return store_.length(id); }

    /** Forward-strand sequence of a node, decoded from the packed arena. */
    std::string forwardSequence(NodeId id) const;

    /** Sequence of an oriented handle (reverse complemented if needed). */
    std::string sequence(Handle handle) const;

    /**
     * Packed 2-bit view of an oriented handle's sequence (extension hot
     * path): the reverse strand is pre-materialized in the packed arena,
     * so either orientation is one word-aligned span ready for SWAR
     * chunk compares.  The view stays valid until the next addNode().
     */
    util::PackedSpan
    packedView(Handle handle) const
    {
        return store_.packedView(handle);
    }

    /** Single base of an oriented handle at the given offset. */
    char
    base(Handle handle, size_t offset) const
    {
        return store_.base(handle, offset);
    }

    /** The packed sequence arena (footprint reporting, tests). */
    const SequenceStore& sequenceStore() const { return store_; }

    /** Bases canonicalized from ambiguity letters to 'A' at ingest. */
    size_t sanitizedBases() const { return store_.sanitizedBases(); }

    /**
     * Bind the packed sequence arenas directly onto a mapped MGZ v3
     * container (mem::ArenaView zero-copy path).  Must be called on a
     * graph with no nodes; edges are still added through addEdge()
     * afterwards.  A v3 container stores no paths (the GBWT holds the
     * haplotypes), so a mapped graph has none.  Throws util::Error on
     * inconsistent tables.
     */
    void bindMappedSequences(std::shared_ptr<mem::MappedFile> file,
                             const uint64_t* words, size_t num_words,
                             const uint32_t* offsets, size_t num_offsets,
                             size_t num_nodes, size_t sanitized_bases);

    /**
     * Heap bytes the graph holds beside its sequence store: the edge
     * adjacency lists and the paths, at vector capacity.  On a mapped
     * load this is what the bind allocates per generation.
     */
    size_t heapBytes() const;

    /** Outgoing neighbors of an oriented handle. */
    const std::vector<Handle>& successors(Handle handle) const;

    /** Incoming neighbors (== successors of the flipped handle, flipped). */
    std::vector<Handle> predecessors(Handle handle) const;

    /** True iff the edge (from -> to) exists. */
    bool hasEdge(Handle from, Handle to) const;

    const std::vector<PathEntry>& paths() const { return paths_; }
    const PathEntry& path(size_t index) const { return paths_.at(index); }

    /** Concatenated sequence spelled by a sequence of handles. */
    std::string pathSequence(const std::vector<Handle>& steps) const;

    /** Total bases across all nodes. */
    size_t totalSequenceLength() const { return totalSequence_; }

    /**
     * Topological order of node ids considering forward-strand edges only.
     * Throws mg::util::Error if the forward graph has a cycle.
     */
    std::vector<NodeId> topologicalOrder() const;

    /**
     * Structural validation: edges reference existing nodes, paths follow
     * edges, sequences are non-empty DNA.  Throws on violation.
     */
    void validate() const;

  private:
    SequenceStore store_;                          // packed fwd+rc arena
    std::vector<std::vector<Handle>> adjacency_;   // handle.packed() -> succ
    std::vector<PathEntry> paths_;
    size_t numEdges_ = 0;
    size_t totalSequence_ = 0;
};

} // namespace mg::graph
