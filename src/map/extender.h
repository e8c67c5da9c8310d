/**
 * @file
 * Haplotype-consistent gapless extension — Giraffe's single most expensive
 * kernel ("the function that extends the search from the seeds",
 * Section V).  From each seed the extender walks the variation graph in
 * both directions, comparing graph bases against read bases, following only
 * successors supported by at least one haplotype in the (cached) GBWT, and
 * allowing a small budget of mismatches.  The per-node GBWT record lookups
 * this walk performs are exactly the accesses the CachedGBWT exists to
 * serve.
 *
 * Hot-path memory overhaul: walk states keep their paths and mismatch
 * lists in SmallVector inline storage, and all growable buffers (DFS
 * stack, successor list, packed-query words) live in a caller-owned
 * ExtendScratch reused across seeds — the steady-state extend loop
 * performs zero heap allocations.
 *
 * Packed SWAR kernel: graph bases come from the 2-bit packed arena
 * (graph::SequenceStore::packedView) and the query is packed once per
 * read into ExtendScratch (forward + reverse complement, the latter via
 * word-wise bit tricks).  The inner match loop XORs 32-base words and
 * locates the first mismatch with countr_zero — identical mismatch
 * offsets, scores, and trimming as the byte loop (golden_kernel_test is
 * the oracle), at a quarter of the memory traffic and a fraction of the
 * compare instructions.  The left walk reads its reverse-complemented
 * prefix directly out of the packed RC words (the RC of a prefix is a
 * suffix of the RC), so no per-seed reverse complement is materialized.
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gbwt/cached_gbwt.h"
#include "graph/variation_graph.h"
#include "map/extension.h"
#include "map/seed.h"
#include "resilience/budget.h"
#include "util/dna.h"
#include "util/small_vector.h"

namespace mg::map {

/** Extension knobs (paper-scale defaults). */
struct ExtendParams
{
    /** Mismatch budget per direction (Giraffe's default is 4 overall). */
    int maxMismatches = 4;
    /** Scoring: +match, -mismatch, plus a bonus for full-length mappings. */
    int matchScore = 1;
    int mismatchPenalty = 4;
    int fullLengthBonus = 5;
    /** Cap on simultaneously explored walk states per seed (safety). */
    size_t maxWalkStates = 64;
    /**
     * Follow only haplotype-supported successors (the GBWT-guided search
     * that defines Giraffe).  Disabling falls back to walking every graph
     * edge — the ablation showing why the haplotype constraint matters
     * (more states, more work, spurious recombinant alignments).
     */
    bool haplotypeConsistent = true;
};

/** Result of extending in one direction. */
struct DirectionalWalk
{
    /** Query characters consumed (after trailing-mismatch trimming). */
    uint32_t consumed = 0;
    /** Query offsets of mismatches within the consumed prefix. */
    MismatchOffsets mismatchOffsets;
    /** Oriented nodes entered, in walk order (may be empty). */
    ExtensionPath path;
    /** Accumulated score of the consumed prefix. */
    int32_t score = 0;
    /** Offset just past the last consumed base within path.back(). */
    uint32_t endOffset = 0;
};

namespace detail {

/** One in-flight walk state of the DFS over haplotype-supported branches.
 *  Inline-storage members make branch copies plain memcpys. */
struct WalkState
{
    gbwt::SearchState state;       // haplotype range at the current node
    uint32_t nodeOffset = 0;       // next base to compare within the node
    uint32_t queryPos = 0;         // next query character to compare
    int mismatches = 0;
    int32_t score = 0;
    ExtensionPath path;
    MismatchOffsets mismatchOffsets;
    // Snapshot at the maximum-score prefix end (always a matching base),
    // used to trim the walk to its best local alignment when it stops.
    uint32_t bestQueryPos = 0;
    uint32_t bestEndOffset = 0;
    int32_t bestScore = 0;
    size_t bestMismatches = 0;
    size_t bestPathLen = 0;
};

} // namespace detail

/**
 * The query of one read, packed 2 bits/base in both orientations.  The
 * right walk reads the forward words from the seed offset; the left walk
 * reads the reverse-complemented prefix as a suffix of the RC words.
 * pack() canonicalizes ambiguous letters to 'A' (util/dna.h policy).
 *
 * ensure() keys on (data pointer, length) so consecutive seeds of the
 * same oriented read repack nothing; callers that rewrite a reused buffer
 * in place must call invalidate() (MapperState does, per read).
 */
struct PackedQuery
{
    std::vector<uint64_t> fwd; // packed oriented read + pad word
    std::vector<uint64_t> rc;  // packed reverse complement + pad word
    uint32_t size = 0;

    void pack(std::string_view oriented);

    void
    ensure(std::string_view oriented)
    {
        if (oriented.data() != keyData_ || oriented.size() != keyLen_) {
            pack(oriented);
        }
    }

    void
    invalidate()
    {
        keyData_ = nullptr;
        keyLen_ = 0;
    }

    /** Query suffix [from, size) — the right walk's view. */
    util::PackedSpan
    suffix(uint32_t from) const
    {
        return util::PackedSpan{fwd.data(), from, size - from};
    }

    /** RC of the prefix [0, len) — the left walk's view. */
    util::PackedSpan
    rcPrefix(uint32_t len) const
    {
        return util::PackedSpan{rc.data(), size - len, len};
    }

  private:
    const char* keyData_ = nullptr;
    size_t keyLen_ = 0;
};

/**
 * Reusable buffers for the extension kernel, owned by the caller (one per
 * worker thread, typically inside MapperState).  After the first few seeds
 * every capacity has reached its high-water mark and extension allocates
 * nothing.
 */
struct ExtendScratch
{
    std::vector<detail::WalkState> stack;      // DFS worklist
    std::vector<gbwt::SearchState> successors; // per-node branch buffer
    PackedQuery query;                         // per-read packed query
    std::vector<uint64_t> walkQuery;           // string walk() overload
    /** 32-base SWAR chunks XORed (bench: words compared per extension). */
    uint64_t wordsCompared = 0;
    /**
     * Optional work budget charged per walk state and GBWT lookup.  When
     * set and exhausted, walks stop at the next state boundary and return
     * their best-so-far prefix (never torn mid-node).  Null disables all
     * budget accounting (the default for tests and tools).
     */
    resilience::ReadBudget* budget = nullptr;
    /**
     * Set when a walk stopped early — at the maxWalkStates cap or on an
     * exhausted budget — instead of running its DFS to completion.
     * extendSeed clears it per seed, so afterwards it says whether either
     * of that seed's directional walks was cut.  A cut extension is not
     * the walk's true maximum, so the mapper never lets it stand in for
     * another seed's extension.
     */
    bool walkCut = false;
};

/**
 * Stateless extension routines; all mutable state (the GBWT cache, the
 * scratch buffers) is owned by the caller, one per worker thread.
 */
class Extender
{
  public:
    Extender(const graph::VariationGraph& graph, ExtendParams params)
        : graph_(graph), params_(params)
    {}

    const ExtendParams& params() const { return params_; }

    /**
     * Extend one seed against the (oriented) read sequence.  `sequence`
     * must already be the reverse complement when seed.onReverseRead is
     * set; seeding produced the seed against exactly that string.
     */
    GaplessExtension extendSeed(const Seed& seed, std::string_view sequence,
                                gbwt::CachedGbwt& cache,
                                ExtendScratch& scratch) const;

    /** Convenience overload using a per-thread scratch (tests, tools). */
    GaplessExtension extendSeed(const Seed& seed, std::string_view sequence,
                                gbwt::CachedGbwt& cache) const;

    /**
     * Core walk: match `query` (left to right) against graph bases starting
     * at `offset` within oriented node `start`, following only
     * haplotype-supported edges.  Packs the query into scratch first;
     * exposed for unit testing.
     */
    DirectionalWalk walk(graph::Handle start, uint32_t offset,
                         std::string_view query, gbwt::CachedGbwt& cache,
                         ExtendScratch& scratch) const;

    /**
     * The packed walk the mapping loop runs: `query` is a span of already
     * packed 2-bit codes (a view into ExtendScratch::query).
     */
    DirectionalWalk walkPacked(graph::Handle start, uint32_t offset,
                               util::PackedSpan query,
                               gbwt::CachedGbwt& cache,
                               ExtendScratch& scratch) const;

    /** Convenience overload using a per-thread scratch (tests, tools). */
    DirectionalWalk walk(graph::Handle start, uint32_t offset,
                         std::string_view query,
                         gbwt::CachedGbwt& cache) const;

  private:
    /** Merge one seed's two directional walks into a GaplessExtension
     *  (mismatch mapping, path stitch, start offset, full-length bonus). */
    GaplessExtension mergeWalks(const Seed& seed, size_t sequence_size,
                                const DirectionalWalk& left,
                                const DirectionalWalk& right) const;

    const graph::VariationGraph& graph_;
    ExtendParams params_;
};

} // namespace mg::map
