/** Tests for mate rescue. */
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "giraffe/parent.h"
#include "obs/hub.h"
#include "sim/pangenome_gen.h"
#include "sim/read_sim.h"

namespace mg::giraffe {
namespace {

/** A repeat-heavy pangenome where rescue has real work to do. */
class RescueFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Identical repeat copies longer than a read: reads contained in
        // a copy have several exactly tied placements, so global mapping
        // picks arbitrarily and pairing breaks — rescue's home turf.
        sim::PangenomeParams pparams;
        pparams.seed = 501;
        pparams.backboneLength = 30000;
        pparams.haplotypes = 6;
        pparams.meanAnchorLength = 150;
        pparams.repeatFraction = 0.35;
        pparams.repeatLibrarySize = 10;
        pparams.repeatDivergence = 0.0;
        pg_ = sim::generatePangenome(pparams);

        index::MinimizerParams mparams;
        mparams.k = 15;
        mparams.w = 8;
        minimizers_ = index::MinimizerIndex(pg_.graph, mparams);
        distance_ = index::DistanceIndex(pg_.graph);

        sim::ReadSimParams rparams;
        rparams.seed = 502;
        rparams.count = 400;
        rparams.paired = true;
        rparams.readLength = 90;
        rparams.fragmentLength = 400;
        reads_ = sim::simulateReads(pg_, rparams);
    }

    ParentOutputs
    run(bool rescue)
    {
        ParentParams params;
        params.mateRescue = rescue;
        ParentEmulator parent(pg_.graph, pg_.gbwt, minimizers_, distance_,
                              params);
        return parent.run(reads_);
    }

    static size_t
    properCount(const ParentOutputs& outputs)
    {
        size_t proper = 0;
        for (const PairResult& pair : outputs.pairs) {
            if (pair.properPair) {
                ++proper;
            }
        }
        return proper;
    }

    sim::GeneratedPangenome pg_;
    index::MinimizerIndex minimizers_;
    index::DistanceIndex distance_;
    map::ReadSet reads_;
};

TEST_F(RescueFixture, RescueNeverLosesProperPairs)
{
    size_t without = properCount(run(false));
    ParentOutputs with = run(true);
    EXPECT_GE(properCount(with), without);
}

TEST_F(RescueFixture, RescueRecoversRepeatConfusedPairs)
{
    ParentOutputs without = run(false);
    ParentOutputs with = run(true);
    // The repeat-rich graph must give rescue something to attempt, and it
    // must convert at least some attempts.
    EXPECT_GT(with.rescue.attempted, 0u);
    if (properCount(without) < without.pairs.size()) {
        EXPECT_GT(with.rescue.rescued, 0u);
        EXPECT_GT(properCount(with), properCount(without));
    }
    EXPECT_LE(with.rescue.rescued, with.rescue.attempted);
}

TEST_F(RescueFixture, RescuedPairsHavePlausibleFragments)
{
    ParentOutputs outputs = run(true);
    for (const PairResult& pair : outputs.pairs) {
        if (pair.properPair) {
            EXPECT_GT(pair.observedFragment, 0);
            EXPECT_LT(pair.observedFragment, 1500);
        }
    }
}

TEST_F(RescueFixture, RescueAttemptsFinishTheirOwnFlightSlots)
{
    // Rescue runs on worker 0's state after the batch loop.  Each attempt
    // must claim its own ring slot rather than re-staging worker 0's last
    // batch read, which had already finished.
    ParentParams params;
    ParentEmulator parent(pg_.graph, pg_.gbwt, minimizers_, distance_,
                          params);
    obs::Hub hub(params.numThreads);
    const std::vector<PairResult> before = run(false).pairs;
    ParentOutputs outputs = parent.run(reads_, nullptr, nullptr, &hub);
    ASSERT_GT(outputs.rescue.attempted, 0u);
    // Rescue reached mapFromSeeds: it mapped reads past the batch loop's.
    ASSERT_GT(hub.registry().snapshot().valueOf("mg_map_reads_total"),
              reads_.size());

    std::set<uint64_t> targets;
    for (const PairResult& pair : before) {
        if (!pair.properPair) {
            targets.insert(pair.firstRead);
            targets.insert(pair.secondRead);
        }
    }
    const std::vector<obs::FlightEntry> ring = hub.flight().snapshot(0);
    ASSERT_FALSE(ring.empty());
    EXPECT_EQ(ring.front().stage, obs::ReadStage::Done);
    EXPECT_EQ(targets.count(ring.front().readIndex), 1u)
        << "newest slot names read " << ring.front().readIndex;
}

TEST_F(RescueFixture, RescueDisabledReportsNothing)
{
    ParentOutputs outputs = run(false);
    EXPECT_EQ(outputs.rescue.attempted, 0u);
    EXPECT_EQ(outputs.rescue.rescued, 0u);
}

TEST_F(RescueFixture, SingleEndRunsSkipRescue)
{
    map::ReadSet unpaired = reads_;
    unpaired.pairedEnd = false;
    ParentParams params;
    ParentEmulator parent(pg_.graph, pg_.gbwt, minimizers_, distance_,
                          params);
    ParentOutputs outputs = parent.run(unpaired);
    EXPECT_TRUE(outputs.pairs.empty());
    EXPECT_EQ(outputs.rescue.attempted, 0u);
}

} // namespace
} // namespace mg::giraffe
