/**
 * Tests for the mapping core: seeding, clustering, extension, and the
 * mapper facade.  The key end-to-end property: error-free reads sampled
 * from indexed haplotypes map back full-length with zero mismatches.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "map/mapper.h"
#include "sim/input_sets.h"
#include "sim/read_sim.h"
#include "util/dna.h"
#include "util/rng.h"

namespace mg::map {
namespace {

/** Shared fixture: a modest pangenome with all indexes built. */
class MappingFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sim::PangenomeParams params;
        params.seed = 71;
        params.backboneLength = 12000;
        params.haplotypes = 6;
        pg_ = sim::generatePangenome(params);

        index::MinimizerParams mparams;
        mparams.k = 15;
        mparams.w = 8;
        minimizers_ = index::MinimizerIndex(pg_.graph, mparams);
        distance_ = index::DistanceIndex(pg_.graph);

        mapper_ = std::make_unique<Mapper>(pg_.graph, pg_.gbwt, minimizers_,
                                           distance_, MapperParams());
        state_ = mapper_->makeState();
    }

    Read
    sampleRead(util::Rng& rng, size_t length, bool reverse)
    {
        const std::string& hap =
            pg_.sequences[rng.uniform(pg_.sequences.size())];
        size_t start = rng.uniform(hap.size() - length + 1);
        Read read;
        read.name = "r";
        read.sequence = hap.substr(start, length);
        if (reverse) {
            read.sequence = util::reverseComplement(read.sequence);
        }
        return read;
    }

    sim::GeneratedPangenome pg_;
    index::MinimizerIndex minimizers_;
    index::DistanceIndex distance_;
    std::unique_ptr<Mapper> mapper_;
    std::unique_ptr<MapperState> state_;
};

TEST_F(MappingFixture, SeedingFindsSeedsForSampledReads)
{
    util::Rng rng(72);
    for (int trial = 0; trial < 20; ++trial) {
        Read read = sampleRead(rng, 150, trial % 2 == 1);
        SeedVector seeds = findSeeds(minimizers_, read);
        EXPECT_FALSE(seeds.empty()) << "trial " << trial;
    }
}

TEST_F(MappingFixture, SeedsCarryValidPositions)
{
    util::Rng rng(73);
    Read read = sampleRead(rng, 150, false);
    for (const Seed& seed : findSeeds(minimizers_, read)) {
        ASSERT_TRUE(pg_.graph.hasNode(seed.position.handle.id()));
        ASSERT_LT(seed.position.offset,
                  pg_.graph.length(seed.position.handle.id()));
        ASSERT_LT(seed.readOffset, read.sequence.size());
        ASSERT_GT(seed.score, 0.0f);
    }
}

TEST_F(MappingFixture, ClusteringGroupsConsistentSeeds)
{
    util::Rng rng(74);
    Read read = sampleRead(rng, 150, false);
    SeedVector seeds = findSeeds(minimizers_, read);
    auto clusters =
        clusterSeeds(pg_.graph, distance_, seeds, ClusterParams());
    ASSERT_FALSE(clusters.empty());
    // Sorted by descending score.
    for (size_t i = 1; i < clusters.size(); ++i) {
        EXPECT_GE(clusters[i - 1].score, clusters[i].score);
    }
    // Every seed index is valid and appears in exactly one cluster.
    std::vector<int> seen(seeds.size(), 0);
    for (const Cluster& cluster : clusters) {
        for (uint32_t idx : cluster.seedIndices) {
            ASSERT_LT(idx, seeds.size());
            ++seen[idx];
        }
    }
    for (size_t i = 0; i < seeds.size(); ++i) {
        EXPECT_EQ(seen[i], 1) << "seed " << i;
    }
}

TEST_F(MappingFixture, ClusterOrientationsNeverMix)
{
    util::Rng rng(75);
    Read read = sampleRead(rng, 150, false);
    SeedVector seeds = findSeeds(minimizers_, read);
    for (const Cluster& cluster :
         clusterSeeds(pg_.graph, distance_, seeds, ClusterParams())) {
        for (uint32_t idx : cluster.seedIndices) {
            EXPECT_EQ(seeds[idx].onReverseRead, cluster.onReverseRead);
        }
    }
}

TEST_F(MappingFixture, ErrorFreeReadsMapFullLength)
{
    util::Rng rng(76);
    for (int trial = 0; trial < 30; ++trial) {
        Read read = sampleRead(rng, 150, trial % 2 == 1);
        MapResult result = mapper_->mapRead(read, *state_);
        ASSERT_FALSE(result.extensions.empty()) << "trial " << trial;
        const GaplessExtension& best = result.extensions.front();
        EXPECT_TRUE(best.fullLength) << "trial " << trial;
        EXPECT_TRUE(best.mismatchOffsets.empty()) << "trial " << trial;
        EXPECT_EQ(best.score,
                  150 * mapper_->params().extend.matchScore +
                      mapper_->params().extend.fullLengthBonus);
    }
}

TEST_F(MappingFixture, ExtensionPathSpellsTheRead)
{
    util::Rng rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        Read read = sampleRead(rng, 120, false);
        MapResult result = mapper_->mapRead(read, *state_);
        ASSERT_FALSE(result.extensions.empty());
        const GaplessExtension& best = result.extensions.front();
        ASSERT_TRUE(best.fullLength);

        // Spell the graph bases under the alignment and compare.
        std::string oriented = best.onReverseRead
            ? util::reverseComplement(read.sequence)
            : read.sequence;
        std::string spelled;
        for (graph::Handle step : best.path) {
            spelled += pg_.graph.sequence(step);
        }
        std::string aligned =
            spelled.substr(best.startOffset, best.length());
        EXPECT_EQ(aligned, oriented) << "trial " << trial;
    }
}

TEST_F(MappingFixture, MismatchedBasesAreReported)
{
    util::Rng rng(78);
    for (int trial = 0; trial < 20; ++trial) {
        Read read = sampleRead(rng, 150, false);
        // Inject one substitution near the middle (away from every
        // minimizer boundary effect).
        size_t flip = 70 + rng.uniform(10);
        read.sequence[flip] =
            rng.differentBase(read.sequence[flip]);
        MapResult result = mapper_->mapRead(read, *state_);
        ASSERT_FALSE(result.extensions.empty()) << "trial " << trial;
        const GaplessExtension& best = result.extensions.front();
        if (best.fullLength) {
            ASSERT_EQ(best.mismatchOffsets.size(), 1u) << "trial " << trial;
            EXPECT_EQ(best.mismatchOffsets[0],
                      best.onReverseRead ? 149 - flip : flip);
            EXPECT_EQ(best.score,
                      149 * mapper_->params().extend.matchScore -
                          mapper_->params().extend.mismatchPenalty +
                          mapper_->params().extend.fullLengthBonus);
        }
    }
}

TEST_F(MappingFixture, ExtensionsAreDeterministic)
{
    util::Rng rng(79);
    Read read = sampleRead(rng, 150, false);
    MapResult a = mapper_->mapRead(read, *state_);
    auto fresh = mapper_->makeState();
    MapResult b = mapper_->mapRead(read, *fresh);
    ASSERT_EQ(a.extensions.size(), b.extensions.size());
    for (size_t i = 0; i < a.extensions.size(); ++i) {
        EXPECT_TRUE(a.extensions[i] == b.extensions[i]) << "ext " << i;
    }
}

TEST_F(MappingFixture, CacheCapacityDoesNotChangeResults)
{
    util::Rng rng(80);
    std::vector<Read> reads;
    for (int i = 0; i < 10; ++i) {
        reads.push_back(sampleRead(rng, 150, i % 2 == 0));
    }
    MapperParams tiny = mapper_->params();
    tiny.gbwtCacheCapacity = 0;
    Mapper uncached(pg_.graph, pg_.gbwt, minimizers_, distance_, tiny);
    auto uncached_state = uncached.makeState();
    for (const Read& read : reads) {
        MapResult a = mapper_->mapRead(read, *state_);
        MapResult b = uncached.mapRead(read, *uncached_state);
        ASSERT_EQ(a.extensions.size(), b.extensions.size());
        for (size_t i = 0; i < a.extensions.size(); ++i) {
            EXPECT_TRUE(a.extensions[i] == b.extensions[i]);
        }
    }
}

TEST_F(MappingFixture, MapFromSeedsMatchesMapRead)
{
    // The proxy path (precomputed seeds) and the parent path (inline
    // seeding) must agree exactly -- the paper's 100% functional match.
    util::Rng rng(81);
    for (int trial = 0; trial < 15; ++trial) {
        Read read = sampleRead(rng, 150, trial % 2 == 1);
        SeedVector seeds = findSeeds(minimizers_, read);
        MapResult inline_result = mapper_->mapRead(read, *state_);
        MapResult seeded_result =
            mapper_->mapFromSeeds(read, seeds, *state_);
        ASSERT_EQ(inline_result.extensions.size(),
                  seeded_result.extensions.size());
        for (size_t i = 0; i < inline_result.extensions.size(); ++i) {
            EXPECT_TRUE(inline_result.extensions[i] ==
                        seeded_result.extensions[i]);
        }
    }
}

TEST_F(MappingFixture, StageHookGivesEverySinkTheSameInterval)
{
    // With a region log and a request stage accumulator on one state,
    // every stage boundary is one clock read shared by both sinks, so
    // each read's per-stage times agree exactly.
    perf::Profiler profiler;
    state_->log = profiler.registerThread(0);
    obs::StageAccumulator stages;
    state_->stageTrace = &stages;
    util::Rng rng(91);
    for (int trial = 0; trial < 20; ++trial) {
        Read read = sampleRead(rng, 150, trial % 2 == 1);
        stages = obs::StageAccumulator{};
        const size_t first = state_->log->records().size();
        mapper_->mapRead(read, *state_);
        std::array<uint64_t, perf::kStages> logged{};
        const std::vector<perf::RegionRecord>& records =
            state_->log->records();
        for (size_t r = first; r < records.size(); ++r) {
            logged[static_cast<size_t>(records[r].stage)] +=
                records[r].endNanos - records[r].startNanos;
        }
        EXPECT_EQ(logged, stages.nanos) << "read " << trial;
        EXPECT_GT(stages.nanos[static_cast<size_t>(
                      perf::Stage::ProcessUntilThresholdC)],
                  0u);
    }
}

TEST_F(MappingFixture, ThresholdCappingLimitsProcessedClusters)
{
    util::Rng rng(82);
    Read read = sampleRead(rng, 150, false);
    MapResult result = mapper_->mapRead(read, *state_);
    EXPECT_LE(result.clustersProcessed, mapper_->params().maxClusters);
    EXPECT_LE(result.clustersProcessed, result.clustersFormed);
    EXPECT_LE(result.extensions.size(), mapper_->params().maxExtensions);
}

TEST_F(MappingFixture, RandomReadsRarelyMapFullLength)
{
    // Reads not drawn from the pangenome should usually fail to extend
    // fully (they may seed by chance, but extensions stay partial).
    util::Rng rng(83);
    int full = 0;
    for (int trial = 0; trial < 20; ++trial) {
        Read read;
        read.name = "random";
        read.sequence = rng.randomDna(150);
        MapResult result = mapper_->mapRead(read, *state_);
        for (const GaplessExtension& ext : result.extensions) {
            if (ext.fullLength) {
                ++full;
                break;
            }
        }
    }
    EXPECT_LE(full, 1);
}

// ------------------------------------------------------- extender units

TEST_F(MappingFixture, WalkStopsAtMismatchBudget)
{
    Extender extender(pg_.graph, ExtendParams());
    gbwt::CachedGbwt cache(pg_.gbwt, 256);
    // Query with garbage after 30 good bases: walk must stop early.
    const auto& walk0 = pg_.walks[0];
    graph::Handle start = walk0[0];
    std::string good = pg_.graph.sequence(start).substr(0, 10);
    std::string query = good + std::string(40, 'A');
    // (The haplotype may continue with As; just bound the consumed length.)
    DirectionalWalk walk = extender.walk(start, 0, query, cache);
    EXPECT_GE(walk.consumed, good.size());
    EXPECT_LE(walk.mismatchOffsets.size(),
              static_cast<size_t>(ExtendParams().maxMismatches));
}

TEST_F(MappingFixture, WalkRespectsHaplotypeSupport)
{
    // Walking from a node with no haplotype visits returns empty.
    Extender extender(pg_.graph, ExtendParams());
    gbwt::CachedGbwt cache(pg_.gbwt, 256);
    // Find an unvisited orientation (reverse of a node only used forward
    // in the middle of walks still has reverse visits, so synthesize): use
    // an extension query on a node id but from an empty state via a fake
    // handle beyond the slot range is invalid; instead check: every
    // consumed walk is haplotype-supported by re-following the GBWT.
    const auto& walk0 = pg_.walks[0];
    std::string query = pg_.sequences[0].substr(0, 60);
    DirectionalWalk walk = extender.walk(walk0[0], 0, query, cache);
    ASSERT_FALSE(walk.path.empty());
    gbwt::SearchState state = cache.find(walk.path[0]);
    for (size_t i = 1; i < walk.path.size(); ++i) {
        state = cache.extend(state, walk.path[i]);
        ASSERT_FALSE(state.empty()) << "step " << i;
    }
}

/** Parameterized: mismatch budgets sweep. */
class MismatchBudgetProperty : public ::testing::TestWithParam<int>
{};

TEST_P(MismatchBudgetProperty, MismatchCountNeverExceedsBudget)
{
    sim::PangenomeParams params;
    params.seed = 84;
    params.backboneLength = 6000;
    params.haplotypes = 4;
    sim::GeneratedPangenome pg = sim::generatePangenome(params);
    index::MinimizerParams mparams;
    mparams.k = 15;
    mparams.w = 8;
    index::MinimizerIndex minimizers(pg.graph, mparams);
    index::DistanceIndex distance(pg.graph);
    MapperParams mp;
    mp.extend.maxMismatches = GetParam();
    Mapper mapper(pg.graph, pg.gbwt, minimizers, distance, mp);
    auto state = mapper.makeState();

    util::Rng rng(85);
    for (int trial = 0; trial < 10; ++trial) {
        const std::string& hap =
            pg.sequences[rng.uniform(pg.sequences.size())];
        size_t start = rng.uniform(hap.size() - 150);
        Read read;
        read.name = "r";
        read.sequence = hap.substr(start, 150);
        // Heavy error injection.
        for (int e = 0; e < 6; ++e) {
            size_t pos = rng.uniform(read.sequence.size());
            read.sequence[pos] = rng.differentBase(read.sequence[pos]);
        }
        MapResult result = mapper.mapRead(read, *state);
        for (const GaplessExtension& ext : result.extensions) {
            // Each direction may use the budget independently.
            EXPECT_LE(ext.mismatchOffsets.size(),
                      2 * static_cast<size_t>(GetParam()));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Budgets, MismatchBudgetProperty,
                         ::testing::Values(0, 1, 2, 4, 8));

} // namespace
} // namespace mg::map
