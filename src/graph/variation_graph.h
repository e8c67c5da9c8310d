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
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/handle.h"
#include "graph/sequence_store.h"
#include "mem/arena.h"
#include "util/common.h"
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
 *
 * The adjacency is one CSR table in the layout of the sequence store: a
 * u32 offset per oriented handle (slot = packed - 2, plus an end entry)
 * into a flat array of 32-bit packed successor handles.  A heap-built
 * graph keeps both arrays on the heap; a mapped graph binds them out of
 * an MGZ3 container without copying.
 */
class VariationGraph
{
  public:
    VariationGraph();

    /**
     * Add a node with the given non-empty sequence.  Ambiguity letters
     * (N, IUPAC codes) are canonicalized to 'A' and counted in
     * sanitizedBases(); non-letter characters throw.
     */
    NodeId addNode(std::string sequence);

    /**
     * Add a batch of edges between oriented handles (each idempotent)
     * with one rebuild of the edge table, O(edges + nodes) per call:
     * builders add their whole edge list at once.  Successors keep
     * insertion order.  Throws on an unknown node, or StatusError
     * (InvalidArgument, section "edges") for a handle beyond 32 bits.
     */
    void addEdges(std::span<const std::pair<Handle, Handle>> edges);

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
     * Bind the packed sequence arenas directly onto a mapped MGZ3
     * container (mem::ArenaView zero-copy path).  Must be called on a
     * graph with no nodes, before bindMappedEdges().  A container stores
     * no paths (the GBWT holds the haplotypes), so a mapped graph has
     * none.  Throws util::Error on inconsistent tables.
     */
    void bindMappedSequences(std::shared_ptr<mem::MappedFile> file,
                             const uint64_t* words, size_t num_words,
                             const uint32_t* offsets, size_t num_offsets,
                             size_t num_nodes, size_t sanitized_bases);

    /**
     * Bind the edge table onto a mapped container, after the sequences.
     * Checks what keeps successors() in bounds: 2 * numNodes() + 1
     * offsets, starting at 0, non-decreasing and ending exactly at the
     * target arena, and every target a node of the graph.  Throws
     * StatusError (Corrupt, section "edges.offsets" or "edges").
     */
    void bindMappedEdges(std::shared_ptr<mem::MappedFile> file,
                         const uint32_t* offsets, size_t num_offsets,
                         const PackedHandle* targets, size_t num_targets);

    /**
     * Heap bytes the graph holds beside its sequence store: a heap-built
     * edge table and the paths, at vector capacity.  A mapped bind holds
     * none.
     */
    size_t heapBytes() const;

    /** The edge table's offsets, 2 * numNodes() + 1 (serialization). */
    const mem::ArenaView<uint32_t>& edgeOffsets() const
    {
        return edgeOffsets_;
    }

    /** The edge table's packed successor handles (serialization). */
    const mem::ArenaView<PackedHandle>& edgeTargets() const
    {
        return edgeTargets_;
    }

    /** Outgoing neighbors of an oriented handle. */
    std::span<const PackedHandle>
    successors(Handle handle) const
    {
        MG_ASSERT(hasNode(handle.id()));
        const uint32_t* offsets = edgeOffsets_.data() + handle.packed() - 2;
        return {edgeTargets_.data() + offsets[0], offsets[1] - offsets[0]};
    }

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
    /** Edges stored once per bidirected pair: the canonical half. */
    void countEdges();

    SequenceStore store_;                         // packed fwd+rc arena
    mem::ArenaView<uint32_t> edgeOffsets_;        // slot -> first target
    mem::ArenaView<PackedHandle> edgeTargets_;    // successor handles
    std::vector<PathEntry> paths_;
    size_t numEdges_ = 0;
    size_t totalSequence_ = 0;
};

} // namespace mg::graph
