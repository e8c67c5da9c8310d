/**
 * @file
 * SequenceStore: the 2-bit packed node-sequence arena of the mapping hot
 * path.  Every node's forward sequence AND its reverse complement are
 * packed 32 bases per 64-bit word into one contiguous word arena, with a
 * base-offset table indexed by handle.packed().  The extension kernel
 * reads graph bases as word-aligned SWAR chunks (util::chunk32 shift-carry
 * from any base offset), so the innermost compare loop XORs 32 bases at a
 * time instead of branching per byte.
 *
 * Storing both orientations doubles the packed bases, but at 2 bits/base
 * the arena still shrinks ~4x against the previous 2-bytes/base byte
 * layout — one quarter the bandwidth through the cache hierarchy for the
 * same walk, which is the trade the paper's memory-bound analysis
 * motivates.  The reverse complement is derived at ingest by word-wise
 * complement + 2-bit-group reversal (util::reverseComplementPacked), not
 * per-base calls.
 *
 * Ingest applies the non-ACGT canonicalization policy (util/dna.h):
 * ambiguity letters become 'A' and are counted in sanitizedBases();
 * non-letter characters are rejected.
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/handle.h"
#include "mem/arena.h"
#include "util/dna.h"

namespace mg::graph {

/** Contiguous packed forward + reverse-complement sequence arena. */
class SequenceStore
{
  public:
    /**
     * Append one node (ids are dense, so node k is the k-th call).  Throws
     * StatusError (InvalidArgument, section "seq.offsets") when the node
     * would carry the packed arena past UINT32_MAX bases.
     */
    void addNode(std::string_view forward_sequence);

    size_t numNodes() const { return numNodes_; }

    /** Total forward bases stored (arena holds twice this, packed). */
    size_t
    totalBases() const
    {
        return offsets_.empty() ? 0 : offsets_.back() / 2;
    }

    /** Length of a node's sequence. */
    size_t
    length(NodeId id) const
    {
        size_t slot = slotOf(Handle(id, false));
        return offsets_[slot + 1] - offsets_[slot];
    }

    /** Forward-strand sequence of a node, decoded from the arena. */
    std::string
    forwardSequence(NodeId id) const
    {
        return sequence(Handle(id, false));
    }

    /** Sequence of an oriented handle, decoded from the arena. */
    std::string
    sequence(Handle handle) const
    {
        size_t slot = slotOf(handle);
        return util::unpackPacked(words_.data(), offsets_[slot],
                                  offsets_[slot + 1] - offsets_[slot]);
    }

    /**
     * Packed view of an oriented handle's sequence — the hot-path access.
     * Both strands are pre-materialized, so either orientation is one
     * word-aligned span.  Views stay valid until the next addNode().
     */
    util::PackedSpan
    packedView(Handle handle) const
    {
        size_t slot = slotOf(handle);
        return util::PackedSpan{
            words_.data(), offsets_[slot],
            static_cast<uint32_t>(offsets_[slot + 1] - offsets_[slot])
        };
    }

    /** Single base of an oriented handle (bounds unchecked, hot path). */
    char
    base(Handle handle, size_t offset) const
    {
        return util::codeBase(util::packedCode(
            words_.data(), offsets_[slotOf(handle)] + offset));
    }

    /** Bases canonicalized from ambiguity letters to 'A' at ingest. */
    size_t sanitizedBases() const { return sanitizedBases_; }

    /** Resident bytes of the packed word arena (incl. the pad word). */
    size_t arenaBytes() const { return words_.size() * sizeof(uint64_t); }

    /** Resident bytes of the per-orientation offset table. */
    size_t offsetTableBytes() const { return offsets_.bytes(); }

    /** Resident bytes actually holding data (arena + offset table). */
    size_t
    footprintBytes() const
    {
        return arenaBytes() + offsetTableBytes();
    }

    /** Reserved bytes including over-grown vector capacity. */
    size_t
    reservedBytes() const
    {
        return words_.reservedBytes() + offsets_.reservedBytes();
    }

    /** Pre-size the arena for an expected total of forward bases. */
    void
    reserveBases(size_t forward_bases)
    {
        words_.owned().reserve(util::packedBufferWords(2 * forward_bases));
    }

    /** True when the arenas are mmap-backed (MGZ v3 load). */
    bool isMapped() const { return words_.isMapped(); }

    /** Raw word arena (v3 serialization). */
    const mem::ArenaView<uint64_t>& words() const { return words_; }

    /**
     * Raw offset table, 2*numNodes+1 entries (v3 serialization).  Offsets
     * are 32-bit, so a store holds at most UINT32_MAX packed bases (both
     * strands); addNode() rejects a node that would pass that.
     */
    const mem::ArenaView<uint32_t>& offsets() const { return offsets_; }

    /**
     * Rebind the store onto arenas living inside a mapped MGZ v3
     * container.  The caller validated sizes/alignment; this performs the
     * cheap structural scans (offset monotonicity, equal strand lengths,
     * word-count match) that keep "never crash on corrupt input" true,
     * then replaces any heap state.  Throws util::Error on inconsistency.
     */
    void bindMapped(std::shared_ptr<mem::MappedFile> file,
                    const uint64_t* words, size_t num_words,
                    const uint32_t* offsets, size_t num_offsets,
                    size_t num_nodes, size_t sanitized_bases);

  private:
    /** Handles pack to 2*id(+1) and ids start at 1: slot = packed - 2. */
    static size_t slotOf(Handle handle) { return handle.packed() - 2; }

    mem::ArenaView<uint64_t> words_;    // fwd(1) rc(1) fwd(2) ... + pad word
    mem::ArenaView<uint32_t> offsets_;  // slot -> arena base offset; 2n+1
    size_t numNodes_ = 0;
    size_t sanitizedBases_ = 0;

    // Ingest scratch (capacity persists across addNode calls).
    std::string sanitizeScratch_;
    std::vector<uint64_t> packScratch_;
    std::vector<uint64_t> rcScratch_;
};

} // namespace mg::graph
