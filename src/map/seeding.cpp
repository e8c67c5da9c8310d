#include "map/seeding.h"

#include <cmath>

#include "util/dna.h"

namespace mg::map {

void
appendSeeds(const index::MinimizerIndex& index, std::string_view seq,
            bool on_reverse_read, const SeedingParams& params,
            SeedVector& out, util::MemTracer* tracer)
{
    for (const index::Minimizer& min :
         index::minimizersOf(seq, index.params())) {
        auto [positions, count] = index.lookup(min.hash);
        util::traceWork(tracer, 8);
        if (count == 0 || count > params.maxSeedsPerMinimizer) {
            continue;
        }
        util::traceAccess(tracer, positions,
                          static_cast<uint32_t>(count * sizeof(*positions)));
        // Rarity score: a unique minimizer scores 1, frequent ones decay
        // logarithmically (mirrors Giraffe's hard-hit downweighting).
        float score =
            1.0f / (1.0f + std::log2(static_cast<float>(count)));
        for (size_t i = 0; i < count; ++i) {
            Seed seed;
            seed.position = positions[i];
            seed.readOffset = min.offset;
            seed.onReverseRead = on_reverse_read;
            seed.score = score;
            out.push_back(seed);
        }
    }
}

SeedVector
findSeeds(const index::MinimizerIndex& index, const Read& read,
          const SeedingParams& params, util::MemTracer* tracer)
{
    SeedVector seeds;
    appendSeeds(index, read.sequence, false, params, seeds, tracer);
    std::string rc = util::reverseComplement(read.sequence);
    appendSeeds(index, rc, true, params, seeds, tracer);
    return seeds;
}

} // namespace mg::map
