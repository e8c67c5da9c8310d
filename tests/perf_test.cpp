/** Tests for the region profiler. */
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "perf/profiler.h"
#include "test_paths.h"

namespace mg::perf {
namespace {

TEST(ProfilerTest, StagesHaveThePaperRegionNames)
{
    // Every stage has its own name from the paper's instrumented regions
    // (Figures 2 and 3), with no registration step.
    EXPECT_STREQ(regionName(Stage::FindSeeds), "find_seeds");
    EXPECT_STREQ(regionName(Stage::ClusterSeeds), "cluster_seeds");
    EXPECT_STREQ(regionName(Stage::ProcessUntilThresholdC),
                 "process_until_threshold_c");
    EXPECT_STREQ(regionName(Stage::Extend), "extend");
    EXPECT_STREQ(regionName(Stage::ScoreExtensions), "score_extensions");
    EXPECT_STREQ(regionName(Stage::Align), "align");
    std::set<std::string> names;
    for (size_t s = 0; s < kStages; ++s) {
        names.insert(regionName(static_cast<Stage>(s)));
    }
    EXPECT_EQ(names.size(), kStages);
}

TEST(ProfilerTest, DisabledProfilerRecordsNothing)
{
    Profiler profiler(false);
    EXPECT_EQ(profiler.registerThread(0), nullptr);
    EXPECT_TRUE(profiler.aggregate().empty());
}

TEST(ProfilerTest, ThreadLogAccumulatesTime)
{
    Profiler profiler;
    Profiler::ThreadLog* log = profiler.registerThread(0);
    ASSERT_NE(log, nullptr);
    for (uint64_t i = 0; i < 3; ++i) {
        log->add(Stage::Extend, 1000 * i, 1000 * i + 250);
    }
    auto totals = profiler.aggregate();
    ASSERT_EQ(totals.size(), 1u);
    EXPECT_EQ(totals[0].stage, Stage::Extend);
    EXPECT_EQ(totals[0].invocations, 3u);
    EXPECT_EQ(totals[0].totalNanos, 750u);
    EXPECT_DOUBLE_EQ(profiler.regionSeconds(Stage::Extend), 750e-9);
    EXPECT_DOUBLE_EQ(profiler.regionSeconds(Stage::Align), 0.0);
}

TEST(ProfilerTest, PerThreadAggregation)
{
    Profiler profiler;
    std::vector<std::thread> threads;
    for (size_t t = 0; t < 4; ++t) {
        threads.emplace_back([&profiler, t] {
            Profiler::ThreadLog* log = profiler.registerThread(t);
            for (size_t i = 0; i <= t; ++i) {
                log->add(Stage::ClusterSeeds, i, i + 1);
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    auto totals = profiler.aggregate();
    ASSERT_EQ(totals.size(), 4u);
    uint64_t invocations = 0;
    for (const RegionTotal& total : totals) {
        invocations += total.invocations;
    }
    EXPECT_EQ(invocations, 1u + 2u + 3u + 4u);
    EXPECT_EQ(profiler.numThreads(), 4u);
}

TEST(ProfilerTest, DumpCsvWritesRecords)
{
    Profiler profiler;
    profiler.registerThread(0)->add(Stage::ClusterSeeds, 10, 20);
    std::string path = testPath("mg_profile.csv");
    profiler.dumpCsv(path);
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "thread,region,start_ns,end_ns");
    std::string row;
    std::getline(in, row);
    EXPECT_EQ(row, "0,cluster_seeds,10,20");
}

TEST(ProfilerTest, ClearRecordsKeepsRegions)
{
    Profiler profiler;
    profiler.registerThread(0)->add(Stage::Align, 0, 5);
    profiler.clearRecords();
    EXPECT_TRUE(profiler.aggregate().empty());
    // A new log after the clear aggregates under the same stage.
    profiler.registerThread(0)->add(Stage::Align, 0, 7);
    auto totals = profiler.aggregate();
    ASSERT_EQ(totals.size(), 1u);
    EXPECT_EQ(totals[0].stage, Stage::Align);
    EXPECT_EQ(totals[0].totalNanos, 7u);
}

} // namespace
} // namespace mg::perf
