/** Tests for descriptive statistics, special functions, and ANOVA. */
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "stats/anova.h"
#include "stats/latency.h"
#include "stats/bootstrap.h"
#include "stats/descriptive.h"
#include "stats/paired.h"
#include "stats/special.h"
#include "util/common.h"
#include "util/rng.h"

namespace mg::stats {
namespace {

TEST(DescriptiveTest, MeanVarianceStdev)
{
    std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_DOUBLE_EQ(variance(xs), 4.0);
    EXPECT_DOUBLE_EQ(stdev(xs), 2.0);
}

TEST(DescriptiveTest, EmptyAndSingleton)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(variance({1.0}), 0.0);
}

TEST(DescriptiveTest, GeomeanKnownValues)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
    // The paper's headline: per-input speedups combine geometrically
    // (1.36, 1.07, 1.10, 1.11 give the reported ~1.15 overall).
    EXPECT_NEAR(geomean({1.36, 1.07, 1.10, 1.11}), 1.1545, 1e-3);
}

TEST(DescriptiveTest, MinMax)
{
    std::vector<double> xs = {3.0, -1.0, 7.5};
    EXPECT_DOUBLE_EQ(minOf(xs), -1.0);
    EXPECT_DOUBLE_EQ(maxOf(xs), 7.5);
}

TEST(DescriptiveTest, CosineSimilarityBounds)
{
    std::vector<double> a = {1, 2, 3};
    EXPECT_NEAR(cosineSimilarity(a, a), 1.0, 1e-12);
    std::vector<double> orthogonal_a = {1, 0};
    std::vector<double> orthogonal_b = {0, 1};
    EXPECT_NEAR(cosineSimilarity(orthogonal_a, orthogonal_b), 0.0, 1e-12);
    std::vector<double> scaled = {2, 4, 6};
    EXPECT_NEAR(cosineSimilarity(a, scaled), 1.0, 1e-12);
}

TEST(DescriptiveTest, PearsonKnownValues)
{
    std::vector<double> x = {1, 2, 3, 4};
    std::vector<double> y = {2, 4, 6, 8};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    std::vector<double> z = {8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

// --------------------------------------------------------------- special

TEST(SpecialTest, IncompleteBetaBoundaries)
{
    EXPECT_DOUBLE_EQ(regularizedIncompleteBeta(2.0, 3.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(regularizedIncompleteBeta(2.0, 3.0, 1.0), 1.0);
}

TEST(SpecialTest, IncompleteBetaKnownValues)
{
    // I_x(1, 1) = x (uniform CDF).
    for (double x : {0.1, 0.25, 0.5, 0.9}) {
        EXPECT_NEAR(regularizedIncompleteBeta(1.0, 1.0, x), x, 1e-10);
    }
    // I_x(1, b) = 1 - (1-x)^b.
    EXPECT_NEAR(regularizedIncompleteBeta(1.0, 3.0, 0.5),
                1.0 - std::pow(0.5, 3), 1e-10);
    // Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
    EXPECT_NEAR(regularizedIncompleteBeta(2.5, 4.5, 0.3),
                1.0 - regularizedIncompleteBeta(4.5, 2.5, 0.7), 1e-10);
}

TEST(SpecialTest, FDistributionReferenceValues)
{
    // Reference quantiles: P(F_{d1,d2} <= f).  F_{1,10}: the 95th
    // percentile is 4.9646; F_{3,20}: 3.0984 (standard tables).
    EXPECT_NEAR(fDistributionCdf(4.9646, 1, 10), 0.95, 1e-3);
    EXPECT_NEAR(fDistributionCdf(3.0984, 3, 20), 0.95, 1e-3);
    EXPECT_NEAR(fDistributionSf(3.0984, 3, 20), 0.05, 1e-3);
    EXPECT_DOUBLE_EQ(fDistributionCdf(0.0, 3, 20), 0.0);
}

TEST(SpecialTest, TDistributionSymmetry)
{
    EXPECT_NEAR(tDistributionCdf(0.0, 7), 0.5, 1e-12);
    // t_{0.975, 10} = 2.228.
    EXPECT_NEAR(tDistributionCdf(2.228, 10), 0.975, 1e-3);
    EXPECT_NEAR(tDistributionCdf(-2.228, 10), 0.025, 1e-3);
}

// ------------------------------------------------------- latency histogram

TEST(LatencyHistogramTest, MergeAcrossThreadsMatchesSerialRecording)
{
    // Each worker records into a private histogram (the per-thread pattern
    // used by the mapper and the obs registry); merging the shards must be
    // indistinguishable from one histogram that saw every sample.
    constexpr int kThreads = 4;
    constexpr uint64_t kPerThread = 5000;
    std::vector<LatencyHistogram> shards(kThreads);
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&shards, t] {
            for (uint64_t i = 0; i < kPerThread; ++i) {
                shards[static_cast<size_t>(t)].record(
                    (i % 1000) * 37 + static_cast<uint64_t>(t));
            }
        });
    }
    for (std::thread& w : workers) {
        w.join();
    }

    LatencyHistogram merged;
    LatencyHistogram serial;
    for (int t = 0; t < kThreads; ++t) {
        merged.merge(shards[static_cast<size_t>(t)]);
        for (uint64_t i = 0; i < kPerThread; ++i) {
            serial.record((i % 1000) * 37 + static_cast<uint64_t>(t));
        }
    }

    EXPECT_EQ(merged.count(), kThreads * kPerThread);
    EXPECT_EQ(merged.count(), serial.count());
    EXPECT_EQ(merged.sumNanos(), serial.sumNanos());
    EXPECT_EQ(merged.rawBuckets(), serial.rawBuckets());
    EXPECT_DOUBLE_EQ(merged.p50(), serial.p50());
    EXPECT_DOUBLE_EQ(merged.p999(), serial.p999());
}

TEST(LatencyHistogramTest, FromRawRoundTrips)
{
    LatencyHistogram h;
    for (uint64_t nanos : { 1u, 100u, 100u, 1u << 20 }) {
        h.record(nanos);
    }
    LatencyHistogram copy =
        LatencyHistogram::fromRaw(h.rawBuckets(), h.count(), h.sumNanos());
    EXPECT_EQ(copy.count(), h.count());
    EXPECT_EQ(copy.sumNanos(), h.sumNanos());
    EXPECT_EQ(copy.rawBuckets(), h.rawBuckets());
}

// ----------------------------------------------------------------- anova

TEST(AnovaTest, DetectsStrongFactor)
{
    // Factor A shifts the response by 10; factor B does nothing.
    util::Rng rng(31);
    Factor a{"A", {}, 2};
    Factor b{"B", {}, 2};
    std::vector<double> response;
    for (int i = 0; i < 40; ++i) {
        size_t la = i % 2;
        size_t lb = (i / 2) % 2;
        a.levels.push_back(la);
        b.levels.push_back(lb);
        response.push_back(static_cast<double>(la) * 10.0 +
                           rng.uniformReal());
    }
    AnovaResult result = anova({a, b}, response);
    ASSERT_EQ(result.effects.size(), 2u);
    EXPECT_LT(result.effects[0].pValue, 1e-6);
    EXPECT_GT(result.effects[1].pValue, 0.1);
}

TEST(AnovaTest, NullFactorsHaveUniformishPValues)
{
    // With pure noise, p-values should not be systematically tiny.
    util::Rng rng(32);
    int significant = 0;
    for (int rep = 0; rep < 50; ++rep) {
        Factor f{"F", {}, 4};
        std::vector<double> response;
        for (int i = 0; i < 32; ++i) {
            f.levels.push_back(i % 4);
            response.push_back(rng.uniformReal());
        }
        AnovaResult result = anova({f}, response);
        if (result.effects[0].pValue < 0.05) {
            ++significant;
        }
    }
    EXPECT_LE(significant, 8); // ~2.5 expected; generous bound
}

TEST(AnovaTest, SumsOfSquaresDecompose)
{
    util::Rng rng(33);
    Factor a{"A", {}, 3};
    std::vector<double> response;
    for (int i = 0; i < 30; ++i) {
        a.levels.push_back(i % 3);
        response.push_back(static_cast<double>(i % 3) + rng.uniformReal());
    }
    AnovaResult result = anova({a}, response);
    EXPECT_NEAR(result.effects[0].sumSquares + result.residualSumSquares,
                result.totalSumSquares, 1e-9);
    EXPECT_EQ(result.effects[0].degreesOfFreedom, 2u);
    EXPECT_EQ(result.residualDegreesOfFreedom, 27u);
}

TEST(AnovaTest, FormatTableContainsFactors)
{
    Factor a{"capacity", {0, 1, 0, 1, 0, 1, 0, 1}, 2};
    std::vector<double> response = {1, 5, 1.1, 5.2, 0.9, 4.9, 1.0, 5.1};
    AnovaResult result = anova({a}, response);
    std::string table = formatAnovaTable(result);
    EXPECT_NE(table.find("capacity"), std::string::npos);
    EXPECT_NE(table.find("residual"), std::string::npos);
}

// ------------------------------------------------------------- bootstrap

TEST(BootstrapTest, MeanCiCoversTheTruth)
{
    // Samples from a known uniform-ish population around 10.
    util::Rng rng(41);
    std::vector<double> sample;
    for (int i = 0; i < 40; ++i) {
        sample.push_back(9.0 + 2.0 * rng.uniformReal());
    }
    ConfidenceInterval ci = bootstrapCi(
        sample, [](const std::vector<double>& xs) { return mean(xs); });
    EXPECT_LT(ci.lower, ci.upper);
    EXPECT_TRUE(ci.contains(ci.pointEstimate));
    EXPECT_TRUE(ci.contains(10.0));
    EXPECT_GT(ci.lower, 9.0);
    EXPECT_LT(ci.upper, 11.0);
}

TEST(BootstrapTest, NarrowsWithTighterData)
{
    std::vector<double> tight = {10.0, 10.01, 9.99, 10.0, 10.02, 9.98};
    std::vector<double> loose = {6.0, 14.0, 9.0, 11.0, 5.0, 15.0};
    auto width = [](const ConfidenceInterval& ci) {
        return ci.upper - ci.lower;
    };
    auto the_mean = [](const std::vector<double>& xs) { return mean(xs); };
    EXPECT_LT(width(bootstrapCi(tight, the_mean)),
              width(bootstrapCi(loose, the_mean)));
}

TEST(BootstrapTest, RelativeDifferenceDetectsRealGaps)
{
    // b is ~10% slower than a: the CI should exclude zero.
    std::vector<double> a = {1.00, 1.01, 0.99, 1.02, 0.98, 1.00};
    std::vector<double> b = {1.10, 1.11, 1.09, 1.12, 1.08, 1.10};
    ConfidenceInterval ci = bootstrapRelativeDifference(b, a);
    EXPECT_GT(ci.lower, 0.05);
    EXPECT_LT(ci.upper, 0.15);
    EXPECT_FALSE(ci.contains(0.0));
}

TEST(BootstrapTest, IndistinguishableSamplesCoverZero)
{
    std::vector<double> a = {1.0, 1.2, 0.8, 1.1, 0.9, 1.05};
    std::vector<double> b = {1.05, 0.95, 1.15, 0.85, 1.1, 0.95};
    ConfidenceInterval ci = bootstrapRelativeDifference(a, b);
    EXPECT_TRUE(ci.contains(0.0));
}

TEST(BootstrapTest, RejectsDegenerateInputs)
{
    std::vector<double> one = {1.0};
    auto the_mean = [](const std::vector<double>& xs) { return mean(xs); };
    EXPECT_THROW(bootstrapCi(one, the_mean), util::Error);
    std::vector<double> two = {1.0, 2.0};
    EXPECT_THROW(bootstrapCi(two, the_mean, 1.5), util::Error);
    EXPECT_THROW(bootstrapCi(two, the_mean, 0.95, 10), util::Error);
}

// ----------------------------------------------------------- pairedRatio

/** A deterministic cost function: replays `costs` in call order. */
std::function<double()>
replay(std::vector<double> costs)
{
    auto next = std::make_shared<size_t>(0);
    return [costs = std::move(costs), next] {
        return costs.at((*next)++);
    };
}

TEST(PairedRatioTest, AlternatesWhichSideRunsFirst)
{
    std::string calls;
    PairedRatio paired = pairedRatio(
        4,
        [&] {
            calls += 'b';
            return 1.0;
        },
        [&] {
            calls += 'c';
            return 1.0;
        });
    EXPECT_EQ(calls, "bccbbccb");
    EXPECT_EQ(paired.rounds(), 4u);
}

TEST(PairedRatioTest, MedianIsOfPerRoundRatios)
{
    // Per-round ratios 1, 3, 0.5 (median 1), while the ratio of the two
    // sides' median costs would read 3.
    PairedRatio paired =
        pairedRatio(3, replay({1.0, 3.0, 10.0}), replay({1.0, 1.0, 20.0}));
    EXPECT_EQ(paired.ratios, (std::vector<double>{1.0, 3.0, 0.5}));
    EXPECT_DOUBLE_EQ(paired.median(), 1.0);
    EXPECT_DOUBLE_EQ(paired.baselineCost.pointEstimate, 3.0);
    EXPECT_DOUBLE_EQ(paired.candidateCost.pointEstimate, 1.0);
}

TEST(PairedRatioTest, OneWildRoundDoesNotMoveTheMedian)
{
    std::vector<double> candidate(21, 2.0);
    const PairedRatio steady = pairedRatio(
        21, replay(std::vector<double>(21, 1.0)), replay(candidate));
    candidate[7] = 1000.0; // a descheduled pass
    const PairedRatio wild = pairedRatio(
        21, replay(std::vector<double>(21, 1.0)), replay(candidate));
    EXPECT_DOUBLE_EQ(steady.median(), 0.5);
    EXPECT_DOUBLE_EQ(wild.median(), 0.5);
    EXPECT_DOUBLE_EQ(wild.ratios[7], 0.001);
}

/** Costs around `level` with deterministic drift and jitter, as a host
 *  whose speed wanders between rounds would produce. */
std::function<double()>
noisyCost(double level, uint64_t seed)
{
    auto rng = std::make_shared<util::Rng>(seed);
    auto call = std::make_shared<int>(0);
    return [level, rng, call] {
        const double drift = 1.0 + 0.2 * std::sin(0.1 * (*call)++);
        return level * drift * (0.97 + 0.06 * rng->uniformReal());
    };
}

TEST(PairedRatioTest, IntervalBracketsTheMedian)
{
    const PairedRatio paired =
        pairedRatio(101, noisyCost(1.0, 3), noisyCost(1.0, 4));
    EXPECT_LE(paired.ratio.lower, paired.median());
    EXPECT_GE(paired.ratio.upper, paired.median());
    EXPECT_LT(paired.ratio.lower, paired.ratio.upper);
    EXPECT_TRUE(paired.baselineCost.contains(
        paired.baselineCost.pointEstimate));
    EXPECT_TRUE(paired.candidateCost.contains(
        paired.candidateCost.pointEstimate));
}

TEST(PairedRatioTest, FivePercentSlowerCandidateReadsBelowTheFloor)
{
    const PairedRatio same =
        pairedRatio(101, noisyCost(1.0, 5), noisyCost(1.0, 6));
    const PairedRatio slower =
        pairedRatio(101, noisyCost(1.0, 5), noisyCost(1.05, 6));
    EXPECT_GE(same.median(), 0.98);
    EXPECT_LT(slower.median(), 0.98);
}

TEST(PairedRatioTest, RejectsTooFewRoundsAndNonPositiveCosts)
{
    auto one = [] { return 1.0; };
    EXPECT_THROW(pairedRatio(1, one, one), util::Error);
    EXPECT_THROW(pairedRatio(0, one, one), util::Error);
    EXPECT_THROW(pairedRatio(3, one, [] { return 0.0; }), util::Error);
    EXPECT_THROW(pairedRatio(3, [] { return -1.0; }, one), util::Error);
}

} // namespace
} // namespace mg::stats
