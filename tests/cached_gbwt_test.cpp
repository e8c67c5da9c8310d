/** Tests for the CachedGBWT decode cache. */
#include <gtest/gtest.h>

#include "gbwt/cached_gbwt.h"
#include "sim/pangenome_gen.h"
#include "util/rng.h"

namespace mg::gbwt {
namespace {

using graph::Handle;

sim::GeneratedPangenome
makePangenome(uint64_t seed = 99, size_t backbone = 3000, size_t haps = 6)
{
    sim::PangenomeParams params;
    params.seed = seed;
    params.backboneLength = backbone;
    params.haplotypes = haps;
    return sim::generatePangenome(params);
}

TEST(CachedGbwtTest, QueriesMatchUncachedGbwt)
{
    sim::GeneratedPangenome pg = makePangenome();
    CachedGbwt cache(pg.gbwt, 64);

    for (graph::NodeId id = 1; id <= pg.graph.numNodes(); ++id) {
        for (bool reverse : {false, true}) {
            Handle h(id, reverse);
            EXPECT_EQ(cache.nodeCount(h), pg.gbwt.nodeCount(h));
            SearchState cached = cache.find(h);
            SearchState raw = pg.gbwt.find(h);
            EXPECT_EQ(cached, raw);
        }
    }
}

TEST(CachedGbwtTest, ExtendMatchesUncachedAlongWalks)
{
    sim::GeneratedPangenome pg = makePangenome(100);
    CachedGbwt cache(pg.gbwt, 128);
    for (const auto& walk : pg.walks) {
        SearchState cached = cache.find(walk.front());
        SearchState raw = pg.gbwt.find(walk.front());
        for (size_t i = 1; i < walk.size(); ++i) {
            cached = cache.extend(cached, walk[i]);
            raw = pg.gbwt.extend(raw, walk[i]);
            ASSERT_EQ(cached, raw) << "step " << i;
        }
        EXPECT_GE(cached.size(), 1u);
    }
}

TEST(CachedGbwtTest, RepeatAccessesHitTheCache)
{
    sim::GeneratedPangenome pg = makePangenome(101);
    CachedGbwt cache(pg.gbwt, 256);
    Handle h(1, false);
    cache.record(h);
    uint64_t decodes_after_first = cache.stats().decodes;
    for (int i = 0; i < 10; ++i) {
        cache.record(h);
    }
    EXPECT_EQ(cache.stats().decodes, decodes_after_first);
    EXPECT_GE(cache.stats().hits, 10u);
}

TEST(CachedGbwtTest, ZeroCapacityDisablesCaching)
{
    sim::GeneratedPangenome pg = makePangenome(102);
    CachedGbwt cache(pg.gbwt, 0);
    EXPECT_FALSE(cache.cachingEnabled());
    Handle h(1, false);
    for (int i = 0; i < 5; ++i) {
        cache.record(h);
    }
    EXPECT_EQ(cache.stats().decodes, 5u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.size(), 0u);
    // Queries still work.
    EXPECT_EQ(cache.nodeCount(h), pg.gbwt.nodeCount(h));
}

TEST(CachedGbwtTest, SmallInitialCapacityRehashesMore)
{
    sim::GeneratedPangenome pg = makePangenome(103, 6000, 8);
    CachedGbwt small(pg.gbwt, 2);
    CachedGbwt large(pg.gbwt, 1 << 14);
    for (graph::NodeId id = 1; id <= pg.graph.numNodes(); ++id) {
        small.record(Handle(id, false));
        large.record(Handle(id, false));
    }
    EXPECT_GT(small.stats().rehashes, 5u);
    EXPECT_EQ(large.stats().rehashes, 0u);
    // Same content either way.
    EXPECT_EQ(small.size(), large.size());
}

TEST(CachedGbwtTest, CapacityRoundsUpToPowerOfTwo)
{
    sim::GeneratedPangenome pg = makePangenome(104, 1000, 2);
    CachedGbwt cache(pg.gbwt, 300);
    EXPECT_EQ(cache.capacity(), 512u);
}

TEST(CachedGbwtTest, RecordReferencesSurviveGrowth)
{
    sim::GeneratedPangenome pg = makePangenome(105, 4000, 4);
    CachedGbwt cache(pg.gbwt, 2);
    const DecodedRecord& first = cache.record(Handle(1, false));
    uint64_t visits = first.numVisits();
    // Force many insertions (and rehashes).
    for (graph::NodeId id = 2; id <= pg.graph.numNodes(); ++id) {
        cache.record(Handle(id, false));
    }
    EXPECT_GT(cache.stats().rehashes, 0u);
    // The reference obtained before growth still reads correctly.
    EXPECT_EQ(first.numVisits(), visits);
    EXPECT_EQ(first.numVisits(), pg.gbwt.nodeCount(Handle(1, false)));
}

TEST(CachedGbwtTest, ClearKeepsCapacityDropsEntries)
{
    sim::GeneratedPangenome pg = makePangenome(106, 1000, 2);
    CachedGbwt cache(pg.gbwt, 64);
    for (graph::NodeId id = 1; id <= 20; ++id) {
        cache.record(Handle(id, false));
    }
    size_t capacity = cache.capacity();
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.capacity(), capacity);
    // Re-decoding works after clear.
    EXPECT_EQ(cache.nodeCount(Handle(1, false)),
              pg.gbwt.nodeCount(Handle(1, false)));
}

TEST(CachedGbwtTest, ClearResetsStatsAndBumpsEpoch)
{
    sim::GeneratedPangenome pg = makePangenome(110, 1000, 2);
    CachedGbwt cache(pg.gbwt, 64);
    for (graph::NodeId id = 1; id <= 10; ++id) {
        cache.record(Handle(id, false));
    }
    EXPECT_GT(cache.stats().lookups, 0u);
    uint64_t epoch_before = cache.epoch();
    cache.clear();
    EXPECT_EQ(cache.epoch(), epoch_before + 1);
    // Statistics reset with the generation (the mapper adds each read's
    // statistics to its tally before the next read clears them).
    EXPECT_EQ(cache.stats().lookups, 0u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().decodes, 0u);
    EXPECT_EQ(cache.stats().probes, 0u);
    EXPECT_EQ(cache.stats().rehashes, 0u);
}

TEST(CachedGbwtTest, StaleGenerationEntriesMissAfterClear)
{
    sim::GeneratedPangenome pg = makePangenome(111, 1000, 2);
    CachedGbwt cache(pg.gbwt, 64);
    Handle h(3, false);
    cache.record(h);
    cache.record(h);
    EXPECT_EQ(cache.stats().hits, 1u);
    cache.clear();
    // The slot still physically holds the key, but its generation stamp is
    // stale: the next access must decode again, exactly as a freshly
    // constructed cache would.
    cache.record(h);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().decodes, 1u);
    // ... and from then on it hits again.
    cache.record(h);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(CachedGbwtTest, ClearedCacheMatchesFreshCacheOnEveryQuery)
{
    sim::GeneratedPangenome pg = makePangenome(112, 2000, 4);
    CachedGbwt recycled(pg.gbwt, 64);
    // Several generations of varied traffic, then compare a full sweep
    // against a never-cleared fresh cache.
    util::Rng rng(7);
    for (int gen = 0; gen < 5; ++gen) {
        for (int i = 0; i < 200; ++i) {
            graph::NodeId id = 1 + rng.uniform(pg.graph.numNodes());
            recycled.record(Handle(id, rng.chance(0.5)));
        }
        recycled.clear();
    }
    CachedGbwt fresh(pg.gbwt, 64);
    for (graph::NodeId id = 1; id <= pg.graph.numNodes(); ++id) {
        for (bool reverse : {false, true}) {
            Handle h(id, reverse);
            ASSERT_EQ(recycled.find(h), fresh.find(h));
            ASSERT_EQ(recycled.nodeCount(h), fresh.nodeCount(h));
        }
    }
    EXPECT_EQ(recycled.size(), fresh.size());
}

TEST(CachedGbwtTest, ClearShrinksGrownTableBackToInitialCapacity)
{
    sim::GeneratedPangenome pg = makePangenome(113, 4000, 4);
    CachedGbwt cache(pg.gbwt, 8);
    for (graph::NodeId id = 1; id <= pg.graph.numNodes(); ++id) {
        cache.record(Handle(id, false));
    }
    EXPECT_GT(cache.capacity(), 8u); // rehash growth happened
    cache.clear();
    // A fresh mapping task starts at the tuned initial capacity again.
    EXPECT_EQ(cache.capacity(), 8u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(cache.nodeCount(Handle(1, false)),
              pg.gbwt.nodeCount(Handle(1, false)));
}

TEST(CachedGbwtTest, FootprintGrowsWithEntries)
{
    sim::GeneratedPangenome pg = makePangenome(107, 2000, 4);
    CachedGbwt cache(pg.gbwt, 64);
    size_t before = cache.footprintBytes();
    for (graph::NodeId id = 1; id <= 50; ++id) {
        cache.record(Handle(id, false));
    }
    EXPECT_GT(cache.footprintBytes(), before);
}

/** Parameterized sweep: every capacity yields identical query results. */
class CacheCapacityProperty : public ::testing::TestWithParam<size_t>
{};

TEST_P(CacheCapacityProperty, CapacityNeverChangesSemantics)
{
    sim::GeneratedPangenome pg = makePangenome(108, 2500, 5);
    CachedGbwt cache(pg.gbwt, GetParam());
    util::Rng rng(GetParam() + 1);
    for (int trial = 0; trial < 300; ++trial) {
        graph::NodeId id =
            1 + rng.uniform(pg.graph.numNodes());
        Handle h(id, rng.chance(0.5));
        ASSERT_EQ(cache.nodeCount(h), pg.gbwt.nodeCount(h));
    }
}

INSTANTIATE_TEST_SUITE_P(Capacities, CacheCapacityProperty,
                         ::testing::Values(0, 2, 16, 256, 4096, 65536));

} // namespace
} // namespace mg::gbwt
