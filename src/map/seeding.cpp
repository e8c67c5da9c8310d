#include "map/seeding.h"

#include <cmath>
#include <utility>

#include "util/prefetch.h"

namespace mg::map {

namespace {

/**
 * Per-thread seeding buffers: both orientations' minimizers and their
 * index spans.  Reused across reads, so steady-state seeding allocates
 * only when a read outgrows every earlier one.
 */
struct SeedScratch
{
    std::vector<index::Minimizer> minimizers;
    std::vector<std::pair<const uint64_t*, size_t>> spans;
};

SeedScratch&
scratch()
{
    static thread_local SeedScratch s;
    return s;
}

} // namespace

void
findSeedsInto(const index::MinimizerIndex& index, const Read& read,
              const SeedingParams& params, SeedVector& out,
              util::MemTracer* tracer)
{
    out.clear();
    SeedScratch& s = scratch();
    std::vector<index::Minimizer>& minimizers = s.minimizers;
    minimizers.clear();
    index::appendMinimizers(read.sequence, false, index.params(),
                            minimizers);
    const size_t forward = minimizers.size();
    index::appendMinimizers(read.sequence, true, index.params(),
                            minimizers);

    // Every table access of the read is known before the first one: issue
    // the bucket prefetches, then the lookups with a prefetch of each
    // usable position span, so the index misses overlap instead of
    // serializing on one lookup at a time.
    for (const index::Minimizer& min : minimizers) {
        index.prefetch(min.hash);
    }
    s.spans.resize(minimizers.size());
    for (size_t i = 0; i < minimizers.size(); ++i) {
        s.spans[i] = index.lookup(minimizers[i].hash);
        const auto [positions, count] = s.spans[i];
        if (count != 0 && count <= params.maxSeedsPerMinimizer) {
            util::prefetchSpan(positions, count * sizeof(*positions));
        }
    }

    // Emit forward minimizers, then reverse ones, each in read order.
    for (size_t i = 0; i < minimizers.size(); ++i) {
        const auto [positions, count] = s.spans[i];
        util::traceWork(tracer, 8);
        if (count == 0 || count > params.maxSeedsPerMinimizer) {
            continue;
        }
        util::traceAccess(tracer, positions,
                          static_cast<uint32_t>(count * sizeof(*positions)));
        // Rarity score: a unique minimizer scores 1, frequent ones decay
        // logarithmically (mirrors Giraffe's hard-hit downweighting).
        const float score =
            1.0f / (1.0f + std::log2(static_cast<float>(count)));
        for (size_t p = 0; p < count; ++p) {
            Seed seed;
            seed.position = index::unpackPosition(positions[p]);
            seed.readOffset = minimizers[i].offset;
            seed.onReverseRead = i >= forward;
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
    findSeedsInto(index, read, params, seeds, tracer);
    return seeds;
}

} // namespace mg::map
