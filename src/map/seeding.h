/**
 * @file
 * Seed generation: "the first operation finds the minimizers and the
 * distance index information for the short read being processed.  Once
 * found, the application creates a vector of seeds" (Section IV-B).  In the
 * full application this is part of the preprocessing that Giraffe performs
 * before the critical functions; the parent emulator runs it inline and the
 * proxy typically loads the precomputed result from the reads+seeds .bin
 * file, exactly as the paper's miniGiraffe does.
 */
#pragma once

#include "index/minimizer.h"
#include "map/read.h"
#include "map/seed.h"
#include "util/mem_tracer.h"

namespace mg::map {

/** Seed-generation knobs. */
struct SeedingParams
{
    /** Ignore minimizers with more matches than this (repeat guard). */
    size_t maxSeedsPerMinimizer = 64;
};

/**
 * Find all seeds of one read against the minimizer index, for the forward
 * read and its reverse complement, into `out` (replacing its contents):
 * the forward read's seeds first, then the reverse complement's, each in
 * minimizer order.  Seed scores reflect minimizer rarity (rarer match ==
 * stronger evidence).  Reuses `out`'s capacity and per-thread scratch, so
 * a worker that keeps one seed buffer seeds without allocating once the
 * buffers are warm.  Ambiguity letters follow the canonicalization policy
 * of util/dna.h ('A' forward, 'T' on the reverse strand).
 */
void findSeedsInto(const index::MinimizerIndex& index, const Read& read,
                   const SeedingParams& params, SeedVector& out,
                   util::MemTracer* tracer = nullptr);

/** findSeedsInto into a fresh vector. */
SeedVector findSeeds(const index::MinimizerIndex& index, const Read& read,
                     const SeedingParams& params = SeedingParams(),
                     util::MemTracer* tracer = nullptr);

} // namespace mg::map
