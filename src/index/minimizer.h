/**
 * @file
 * (k,w)-minimizer index over the pangenome's haplotype paths
 * (Section II-B of the paper).  A minimizer is the k-mer with the smallest
 * hash inside each window of w consecutive k-mers; indexing only minimizers
 * shrinks the seed table while guaranteeing that any read sharing a
 * sufficiently long exact stretch with an indexed haplotype produces at
 * least one common minimizer.  A matching minimizer between a read and the
 * index is a *seed*.
 */
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "graph/handle.h"
#include "graph/variation_graph.h"
#include "mem/arena.h"
#include "util/prefetch.h"

namespace mg::index {

/** One minimizer occurrence inside a linear sequence. */
struct Minimizer
{
    uint64_t hash = 0;   ///< Hashed packed k-mer (ordering key).
    uint32_t offset = 0; ///< Start offset of the k-mer in the sequence.
};

/** Minimizer selection parameters. */
struct MinimizerParams
{
    /** k-mer length (Giraffe's short-read default is 29; scaled here). */
    int k = 15;
    /** Window: number of consecutive k-mers considered per window. */
    int w = 8;
    /** Drop index entries occurring more often than this (repeat filter). */
    size_t maxOccurrences = 512;
    /**
     * Worker threads for index construction (paths fanned out over the
     * work-stealing scheduler).  0 picks hardware concurrency; 1 builds
     * serially.  The resulting index is identical regardless.
     */
    unsigned buildThreads = 0;
};

/**
 * Compute the minimizers of a linear sequence with a monotonic-deque sweep.
 * Duplicate selections of the same occurrence are emitted once.
 */
std::vector<Minimizer> minimizersOf(std::string_view sequence,
                                    const MinimizerParams& params);

/**
 * Append the minimizers of `sequence` to `out` — or, with
 * `reverse_complement`, those of its reverse complement, rolled backwards
 * over `sequence` without materializing the complement.  Offsets are into
 * the oriented sequence, so the reverse pass equals
 * minimizersOf(reverseComplement(sequence)).  Allocates only when `out`
 * grows.
 */
void appendMinimizers(std::string_view sequence, bool reverse_complement,
                      const MinimizerParams& params,
                      std::vector<Minimizer>& out);

/**
 * Minimizers of the sequence spelled by a haplotype path, rolled directly
 * from the graph's 2-bit packed arena (32 codes per word fetch) — no
 * decoded path string is materialized.  Offsets are into the concatenated
 * path sequence; the result equals minimizersOf(pathSequence(steps)).
 */
std::vector<Minimizer> minimizersOfPath(const graph::VariationGraph& graph,
                                        const std::vector<graph::Handle>& steps,
                                        const MinimizerParams& params);

/**
 * A graph position packed into one 64-bit word, the way Giraffe stores
 * seed hits: the oriented handle's packed value in the high 32 bits, the
 * offset in the low 32.  Packed words sort in graph::Position order.
 * Throws StatusError (InvalidArgument, section "min.pos") when the handle
 * does not fit 32 bits (node ids above 2^31 - 1) or the offset reaches
 * 2^31 (bit 31 tags a pooled bucket, see MinimizerBucket).
 */
uint64_t packPosition(const graph::Position& pos);

/** Inverse of packPosition. */
inline graph::Position
unpackPosition(uint64_t packed)
{
    graph::Position pos;
    pos.handle = graph::Handle::fromPacked(packed >> 32);
    pos.offset = static_cast<uint32_t>(packed);
    return pos;
}

/**
 * One open-addressing bucket of the minimizer hash table.  `value` == 0
 * marks an empty bucket.  A key with one hit holds that hit's
 * packPosition word inline: the handle (never 0) in the high half, the
 * node offset (below 2^31) in the low half.  A key with more hits is
 * *pooled*: bit 31 is set, bits 0-30 index its first position in the
 * key-major position table and the high half counts its positions.  The
 * layout is fixed (16 bytes, little-endian fields) because the MGZ3
 * container stores the table verbatim and the loader maps it back
 * without rebuilding.
 */
struct MinimizerBucket
{
    static constexpr uint64_t kPooled = uint64_t{1} << 31;
    static constexpr uint64_t kFirstMask = kPooled - 1;

    uint64_t key = 0;
    uint64_t value = 0;

    bool empty() const { return value == 0; }
    bool pooled() const { return (value & kPooled) != 0; }

    /** Positions of the key: 1 inline, or the pooled count. */
    uint32_t
    count() const
    {
        return pooled() ? static_cast<uint32_t>(value >> 32) : 1;
    }

    /** Index of a pooled key's first position in the position table. */
    uint32_t
    first() const
    {
        return static_cast<uint32_t>(value & kFirstMask);
    }
};
static_assert(sizeof(MinimizerBucket) == 16,
              "bucket layout is an on-disk contract");

/**
 * Immutable minimizer-to-graph-position table.
 *
 * Built from every haplotype path of the graph; lookups return the packed
 * graph positions whose k-mer hash matches a read minimizer.  Storage is
 * an open-addressing bucket table (power-of-two size, linear probing,
 * >= 50% empty) — the only key storage — whose buckets hold a single hit
 * inline (98% of keys) or the span of a pooled key in a flat position
 * table, key-major in ascending hash order.  Both arrays map straight
 * out of an MGZ3 container (mem::ArenaView backing).
 */
class MinimizerIndex
{
  public:
    MinimizerIndex() = default;

    /** Index all haplotype paths of the graph. */
    MinimizerIndex(const graph::VariationGraph& graph,
                   const MinimizerParams& params);

    MinimizerIndex(MinimizerIndex&&) noexcept = default;
    MinimizerIndex& operator=(MinimizerIndex&&) noexcept = default;
    MinimizerIndex(const MinimizerIndex&) = delete;
    MinimizerIndex& operator=(const MinimizerIndex&) = delete;

    const MinimizerParams& params() const { return params_; }

    /** Number of distinct indexed minimizer keys (occupied buckets). */
    size_t numKeys() const { return numKeys_; }

    /** Total stored (key, position) entries, inline hits included. */
    size_t
    numEntries() const
    {
        return numKeys_ - pooledKeys_ + positions_.size();
    }

    /**
     * Packed graph positions (unpackPosition) of one minimizer hash,
     * possibly empty.  A single hit is returned in place, inside its
     * bucket.  The returned span is valid as long as the index lives.
     */
    std::pair<const uint64_t*, size_t>
    lookup(uint64_t hash) const
    {
        const size_t table = buckets_.size();
        if (table == 0) {
            return {nullptr, 0};
        }
        const MinimizerBucket* tab = buckets_.data();
        const size_t mask = table - 1;
        // hash64 output is uniform, so the low bits index directly; the
        // builder guarantees >= half the buckets are empty, bounding the
        // linear probe.
        for (size_t i = hash & mask;; i = (i + 1) & mask) {
            const MinimizerBucket& bucket = tab[i];
            if (bucket.empty()) {
                return {nullptr, 0};
            }
            if (bucket.key == hash) {
                if (!bucket.pooled()) {
                    return {&bucket.value, 1};
                }
                return {positions_.data() + bucket.first(), bucket.count()};
            }
        }
    }

    /**
     * Hint that lookup(hash) is coming: prefetch the bucket its probe
     * starts at.  Seeding issues these for a whole read before its first
     * lookup so the table misses overlap.
     */
    void
    prefetch(uint64_t hash) const
    {
        if (!buckets_.empty()) {
            util::prefetchRead(buckets_.data() +
                               (hash & (buckets_.size() - 1)));
        }
    }

    /** Positions of the pooled keys, key-major (serialization, tests). */
    const mem::ArenaView<uint64_t>& positions() const { return positions_; }

    /** The open-addressing bucket table (serialization, tests). */
    const mem::ArenaView<MinimizerBucket>& buckets() const
    {
        return buckets_;
    }

    /** True when the tables are mmap-backed (MGZ3 load). */
    bool isMapped() const { return buckets_.isMapped(); }

    /** Heap/mapped bytes across both tables. */
    size_t
    footprintBytes() const
    {
        return positions_.bytes() + buckets_.bytes();
    }

    /**
     * Rebind onto tables inside a mapped MGZ3 container.  Performs the
     * cheap structural scans that keep corrupt containers from crashing
     * lookups: pooled spans of at least two hits, in bounds and together
     * covering the position table, load factor <= 1/2, and every
     * position, inline or pooled, inside `graph`.  Full content integrity is the per-section CRC's job.
     * Throws StatusError (Corrupt, section "min.table" or "min.pos").
     */
    void bindMapped(std::shared_ptr<mem::MappedFile> file,
                    const MinimizerParams& params,
                    const graph::VariationGraph& graph,
                    const uint64_t* positions, size_t num_positions,
                    const MinimizerBucket* buckets, size_t num_buckets);

  private:
    MinimizerParams params_;
    mem::ArenaView<uint64_t> positions_;       // pooled packPosition words
    mem::ArenaView<MinimizerBucket> buckets_;  // pow2 open addressing
    size_t numKeys_ = 0;
    size_t pooledKeys_ = 0;
};

} // namespace mg::index
