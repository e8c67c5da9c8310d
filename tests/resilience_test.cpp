/**
 * mg::resilience tests: deterministic budget caps with degraded-GAF
 * tagging, watchdog stall detection and cooperative batch cancellation,
 * the retry/bisect stats double-count regression, and FailureReport
 * determinism across schedulers.  The watchdog and retry cases run the
 * shared batch loop through both runners, parent and proxy.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "giraffe/parent.h"
#include "giraffe/proxy.h"
#include "io/gaf.h"
#include "obs/hub.h"
#include "resilience/budget.h"
#include "sched/watchdog.h"
#include "sim/pangenome_gen.h"
#include "sim/read_sim.h"

namespace mg::resilience {
namespace {

// ------------------------------------------------------------------ units

TEST(CancelTokenTest, FirstReasonWinsUntilReset)
{
    CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelReason::None);

    token.cancel(CancelReason::Watchdog);
    EXPECT_TRUE(token.cancelled());
    EXPECT_EQ(token.reason(), CancelReason::Watchdog);

    token.cancel(CancelReason::Deadline); // loses: first reason sticks
    EXPECT_EQ(token.reason(), CancelReason::Watchdog);

    token.reset();
    EXPECT_FALSE(token.cancelled());
    token.cancel(CancelReason::Deadline);
    EXPECT_EQ(token.reason(), CancelReason::Deadline);
}

TEST(ReadBudgetTest, InactiveBudgetChargesNothing)
{
    ReadBudget budget;
    budget.beginRead();
    EXPECT_FALSE(budget.active());
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(budget.chargeStep());
        budget.chargeLookup();
    }
    EXPECT_FALSE(budget.exhausted());
    EXPECT_EQ(budget.steps(), 0u);
    EXPECT_EQ(budget.lookups(), 0u);
}

TEST(ReadBudgetTest, StepCapFiresDeterministically)
{
    WorkBudget limits;
    limits.maxExtendSteps = 3;
    ReadBudget budget;
    budget.configure(limits, 0, nullptr);

    budget.beginRead();
    EXPECT_FALSE(budget.chargeStep());
    EXPECT_FALSE(budget.chargeStep());
    EXPECT_FALSE(budget.chargeStep());
    EXPECT_TRUE(budget.chargeStep()); // 4th state exceeds the cap of 3
    EXPECT_TRUE(budget.exhausted());
    EXPECT_EQ(budget.reason(), CancelReason::StepCap);
    // Once fired, every later point reports the same verdict.
    EXPECT_TRUE(budget.chargeStep());

    // The next read starts from a clean slate.
    budget.beginRead();
    EXPECT_FALSE(budget.exhausted());
    EXPECT_FALSE(budget.chargeStep());
}

TEST(ReadBudgetTest, LookupCapEnforcedAtNextStep)
{
    WorkBudget limits;
    limits.maxGbwtLookups = 2;
    ReadBudget budget;
    budget.configure(limits, 0, nullptr);

    budget.beginRead();
    budget.chargeLookup();
    budget.chargeLookup();
    EXPECT_FALSE(budget.chargeStep()); // at the cap, not over it
    budget.chargeLookup();
    EXPECT_TRUE(budget.chargeStep());
    EXPECT_EQ(budget.reason(), CancelReason::LookupCap);
}

TEST(ReadBudgetTest, FiredTokenDegradesFromBeginRead)
{
    CancelToken token;
    token.cancel(CancelReason::Watchdog);
    ReadBudget budget;
    budget.configure(WorkBudget{}, 0, &token);

    budget.beginRead();
    EXPECT_TRUE(budget.exhausted());
    EXPECT_EQ(budget.reason(), CancelReason::Watchdog);
    EXPECT_TRUE(budget.chargeStep());
}

TEST(TallyTest, SummaryCountsAndNames)
{
    map::Tally stats;
    EXPECT_EQ(stats.summary(),
              "0 degraded (deadline 0, step-cap 0, lookup-cap 0, "
              "watchdog 0)");
    stats.countDegraded(CancelReason::Deadline);
    stats.countDegraded(CancelReason::StepCap);
    stats.countDegraded(CancelReason::StepCap);
    stats.countDegraded(CancelReason::None); // no-op
    EXPECT_EQ(stats.degradedReads(), 3u);
    EXPECT_EQ(stats[obs::MapCount::DegradedStepCap], 2u);
    std::string summary = stats.summary();
    EXPECT_NE(summary.find("deadline 1"), std::string::npos);
    EXPECT_NE(summary.find("step-cap 2"), std::string::npos);
}

TEST(WatchdogTest, CancelsAStalledSlotOnce)
{
    sched::HeartbeatBoard board(2);
    board.beginBatch(0, 10, 20); // stalls below
    board.beginBatch(1, 20, 30);

    sched::WatchdogParams params;
    params.stallSeconds = 0.05;
    params.pollMillis = 5.0;
    sched::Watchdog watchdog(board, params);
    watchdog.start();

    // Worker 1 keeps beating; worker 0 goes silent past the threshold.
    for (int i = 0; i < 20; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        board.beat(1);
    }
    watchdog.stop();

    ASSERT_EQ(watchdog.events().size(), 1u); // fires once per batch
    EXPECT_EQ(watchdog.events()[0].worker, 0u);
    EXPECT_EQ(watchdog.events()[0].batchBegin, 10u);
    EXPECT_EQ(watchdog.events()[0].batchEnd, 20u);
    EXPECT_EQ(board.slot(0).token.reason(), CancelReason::Watchdog);
    EXPECT_FALSE(board.slot(1).token.cancelled());
}

TEST(WatchdogTest, IdleSlotsNeverStall)
{
    sched::HeartbeatBoard board(1);
    board.beginBatch(0, 0, 8);
    board.endBatch(0); // parked

    sched::WatchdogParams params;
    params.stallSeconds = 0.02;
    params.pollMillis = 5.0;
    sched::Watchdog watchdog(board, params);
    watchdog.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    watchdog.stop();

    EXPECT_TRUE(watchdog.events().empty());
    EXPECT_FALSE(board.slot(0).token.cancelled());
}

// ------------------------------------------------------------ end-to-end

/** Small mapping world shared by the pipeline tests. */
class ResiliencePipelineFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::disarmAll();
        sim::PangenomeParams pparams;
        pparams.seed = 911;
        pparams.backboneLength = 8000;
        pparams.haplotypes = 4;
        pg_ = sim::generatePangenome(pparams);

        index::MinimizerParams mparams;
        mparams.k = 15;
        mparams.w = 8;
        minimizers_ = index::MinimizerIndex(pg_.graph, mparams);
        distance_ = index::DistanceIndex(pg_.graph);

        sim::ReadSimParams rparams;
        rparams.seed = 912;
        rparams.count = 80;
        rparams.readLength = 100;
        rparams.errorRate = 0.005;
        reads_ = sim::simulateReads(pg_, rparams);
    }

    void TearDown() override { fault::disarmAll(); }

    giraffe::ParentOutputs
    runParent(const giraffe::ParentParams& params,
              obs::Hub* hub = nullptr) const
    {
        giraffe::ParentEmulator parent(pg_.graph, pg_.gbwt, minimizers_,
                                       distance_, params);
        return parent.run(reads_, nullptr, nullptr, hub);
    }

    giraffe::ParentParams
    baseParams(size_t threads = 2) const
    {
        giraffe::ParentParams params;
        params.numThreads = threads;
        params.batchSize = 8;
        return params;
    }

    /** The two runners built on the shared batch loop. */
    enum class Runner { Parent, Proxy };

    /** What the shared loop leaves behind, whichever runner drove it. */
    struct LoopRun
    {
        giraffe::RunTotals totals;
        /** Output records, one per read even when reads fail. */
        size_t records = 0;
        /** GAF rendering (parent only; empty for the proxy). */
        std::string gaf;
    };

    /**
     * Run `runner` with the run fields of `params` (scheduler included):
     * the parent maps reads_, the proxy maps their seed capture.  `hub`
     * (nullable) receives the run's live metrics.
     */
    LoopRun
    runLoop(Runner runner, const giraffe::ParentParams& params,
            obs::Hub* hub = nullptr) const
    {
        LoopRun run;
        if (runner == Runner::Parent) {
            giraffe::ParentOutputs outputs = runParent(params, hub);
            run.records = outputs.alignments.size();
            run.gaf = io::formatGaf(outputs.alignments, reads_, pg_.graph);
            run.totals = std::move(outputs);
            return run;
        }
        giraffe::ParentEmulator parent(pg_.graph, pg_.gbwt, minimizers_,
                                       distance_, params);
        io::SeedCapture capture = parent.capturePreprocessing(reads_);
        giraffe::ProxyParams proxy_params;
        static_cast<giraffe::RunParams&>(proxy_params) = params;
        proxy_params.mapper = params.mapper;
        giraffe::ProxyRunner proxy(pg_.graph, pg_.gbwt, distance_,
                                   proxy_params);
        giraffe::ProxyOutputs outputs =
            proxy.run(capture, nullptr, nullptr, hub);
        run.records = outputs.extensions.size();
        run.totals = std::move(outputs);
        return run;
    }

    static const char*
    runnerName(Runner runner)
    {
        return runner == Runner::Parent ? "parent" : "proxy";
    }

    sim::GeneratedPangenome pg_;
    index::MinimizerIndex minimizers_;
    index::DistanceIndex distance_;
    map::ReadSet reads_;
};

TEST_F(ResiliencePipelineFixture, StepCapIsDeterministicAndTagged)
{
    giraffe::ParentParams params = baseParams();
    params.budget.maxExtendSteps = 2; // brutal: most reads hit the cap

    giraffe::ParentOutputs first = runParent(params);
    giraffe::ParentOutputs second = runParent(params);

    EXPECT_GT(first.tally[obs::MapCount::DegradedStepCap], 0u);
    EXPECT_EQ(first.tally[obs::MapCount::DegradedStepCap],
              second.tally[obs::MapCount::DegradedStepCap]);
    EXPECT_EQ(first.tally.degradedReads(),
              second.tally.degradedReads());

    // The per-alignment tags agree with the counters, and the GAF carries
    // them: a deterministic cap is a pure function of the read.
    size_t tagged = 0;
    for (size_t i = 0; i < first.alignments.size(); ++i) {
        EXPECT_EQ(first.alignments[i].degraded,
                  second.alignments[i].degraded);
        tagged += first.alignments[i].degraded != CancelReason::None;
    }
    EXPECT_EQ(tagged, first.tally.degradedReads());

    std::string gaf = io::formatGaf(first.alignments, reads_, pg_.graph);
    EXPECT_NE(gaf.find("\tdg:Z:step-cap"), std::string::npos);
    EXPECT_EQ(gaf, io::formatGaf(second.alignments, reads_, pg_.graph));

    // No read is lost: one GAF line per read, capped or not.
    EXPECT_EQ(static_cast<size_t>(
                  std::count(gaf.begin(), gaf.end(), '\n')),
              reads_.size());
}

TEST_F(ResiliencePipelineFixture, LookupCapDegradesReads)
{
    giraffe::ParentParams params = baseParams();
    params.budget.maxGbwtLookups = 1;
    giraffe::ParentOutputs outputs = runParent(params);

    EXPECT_GT(outputs.tally[obs::MapCount::DegradedLookupCap], 0u);
    std::string gaf = io::formatGaf(outputs.alignments, reads_, pg_.graph);
    EXPECT_NE(gaf.find("\tdg:Z:lookup-cap"), std::string::npos);
}

TEST_F(ResiliencePipelineFixture, ExpiredDeadlineDegradesEveryRead)
{
    giraffe::ParentParams params = baseParams();
    params.budget.wallSeconds = 1e-9; // expires before the first read
    giraffe::ParentOutputs outputs = runParent(params);

    // Every read passes its beginRead() deadline check, degrades to
    // best-so-far, and the run still terminates with all reads present.
    EXPECT_EQ(outputs.tally[obs::MapCount::DegradedDeadline], reads_.size());
    EXPECT_EQ(outputs.alignments.size(), reads_.size());
    std::string gaf = io::formatGaf(outputs.alignments, reads_, pg_.graph);
    EXPECT_NE(gaf.find("\tdg:Z:deadline"), std::string::npos);
}

TEST_F(ResiliencePipelineFixture, UnlimitedBudgetDegradesNothing)
{
    giraffe::ParentOutputs outputs = runParent(baseParams());
    EXPECT_EQ(outputs.tally.degradedReads(), 0u);
    EXPECT_EQ(outputs.tally.latency.count(), reads_.size());
    std::string gaf = io::formatGaf(outputs.alignments, reads_, pg_.graph);
    EXPECT_EQ(gaf.find("dg:Z:"), std::string::npos);
}

TEST_F(ResiliencePipelineFixture, WatchdogCancelsAStalledBatch)
{
    giraffe::ParentParams params = baseParams();
    params.watchdog = true;
    params.watchdogParams.stallSeconds = 0.05;
    params.watchdogParams.pollMillis = 5.0;
    for (Runner runner : {Runner::Parent, Runner::Proxy}) {
        SCOPED_TRACE(runnerName(runner));
        // One injected 400 ms stall inside mapFromSeeds; the watchdog's
        // threshold is 50 ms, so it must cancel the stalled worker's
        // batch while the other worker keeps mapping.
        fault::disarmAll();
        fault::armFromText("map.read=stall,stall=400,limit=1");
        LoopRun run = runLoop(runner, params);
        const giraffe::RunTotals& outputs = run.totals;

        EXPECT_GE(outputs.failures.watchdogCancels, 1u);
        EXPECT_GT(outputs.tally[obs::MapCount::DegradedWatchdog], 0u);
        // A cancelled batch completes degraded; it is not a failure.
        EXPECT_TRUE(outputs.failures.batches.empty());
        EXPECT_TRUE(outputs.failures.poisoned.empty());
        EXPECT_NE(outputs.failures.summary().find("watchdog"),
                  std::string::npos);

        // No reads lost or left unmapped-by-accident: every read has its
        // output slot and the GAF tags the degraded ones.
        ASSERT_EQ(run.records, reads_.size());
        if (runner == Runner::Parent) {
            EXPECT_EQ(static_cast<size_t>(std::count(
                          run.gaf.begin(), run.gaf.end(), '\n')),
                      reads_.size());
            EXPECT_NE(run.gaf.find("\tdg:Z:watchdog"), std::string::npos);
        }
    }
}

TEST_F(ResiliencePipelineFixture, WatchdogIdlesOnAHealthyRun)
{
    giraffe::ParentParams params = baseParams();
    params.watchdog = true; // default 5 s threshold never trips here
    giraffe::ParentOutputs guarded = runParent(params);
    giraffe::ParentOutputs plain = runParent(baseParams());

    EXPECT_EQ(guarded.failures.watchdogCancels, 0u);
    EXPECT_EQ(guarded.tally.degradedReads(), 0u);
    EXPECT_EQ(io::formatGaf(guarded.alignments, reads_, pg_.graph),
              io::formatGaf(plain.alignments, reads_, pg_.graph));
}

TEST_F(ResiliencePipelineFixture, RetriedBatchesCountStatsOnce)
{
    // Regression: runGuarded retries a failed batch, and bisection may
    // re-run healthy batchmates; before the snapshot/restore fix every
    // attempt leaked its cache and degradation counters into the totals.
    // Two faults: a worker dying before its batch starts, and a read
    // throwing mid-batch after four batchmates were mapped (their counts
    // must be rolled back with the attempt).
    giraffe::ParentParams params = baseParams(/*threads=*/1);
    params.budget.maxExtendSteps = 16; // nonzero degradation counters too
    // Each fault and the batch failures it records (all recovered).
    const std::pair<const char*, size_t> faults[] = {
        {"sched.worker=throw,limit=3", 3},
        {"map.read=throw,after=20,limit=1", 1},
    };
    for (const auto& [fault_spec, failures] : faults) {
        for (Runner runner : {Runner::Parent, Runner::Proxy}) {
            SCOPED_TRACE(std::string(runnerName(runner)) + " " + fault_spec);
            fault::disarmAll();
            obs::Hub clean_hub(params.numThreads);
            const giraffe::RunTotals baseline =
                runLoop(runner, params, &clean_hub).totals;
            ASSERT_TRUE(baseline.failures.ok());

            fault::armFromText(fault_spec);
            obs::Hub faulted_hub(params.numThreads);
            const giraffe::RunTotals faulted =
                runLoop(runner, params, &faulted_hub).totals;
            ASSERT_EQ(faulted.failures.batches.size(), failures);
            for (const sched::BatchFailure& failure :
                 faulted.failures.batches) {
                EXPECT_TRUE(failure.recovered);
            }

            // The retried run's aggregate stats equal the clean run's
            // exactly: failed attempts contribute nothing, retries count
            // once.
            EXPECT_EQ(faulted.tally.counts, baseline.tally.counts);
            EXPECT_EQ(faulted.tally.cache().lookups,
                      baseline.tally.cache().lookups);
            EXPECT_EQ(faulted.tally[obs::MapCount::DegradedStepCap],
                      baseline.tally[obs::MapCount::DegradedStepCap]);
            EXPECT_GT(baseline.tally.degradedReads(), 0u);
            EXPECT_EQ(faulted.tally.latency.count(),
                      baseline.tally.latency.count());

            // So do the live metrics: every map funnel and GBWT cache
            // counter, and the read-latency count.
            const obs::Snapshot clean = clean_hub.registry().snapshot();
            const obs::Snapshot retried =
                faulted_hub.registry().snapshot();
            size_t compared = 0;
            for (const obs::MetricValue& metric : clean.metrics) {
                if (metric.kind != obs::MetricKind::Counter ||
                    (metric.name.rfind("mg_map_", 0) != 0 &&
                     metric.name.rfind("mg_gbwt_", 0) != 0)) {
                    continue;
                }
                EXPECT_EQ(retried.valueOf(metric.name), metric.value)
                    << metric.name;
                ++compared;
            }
            EXPECT_EQ(compared, obs::kMapCounts);
            EXPECT_EQ(clean.valueOf("mg_map_reads_total"), reads_.size());
            EXPECT_EQ(retried.find("mg_map_read_latency_ns")->hist.count(),
                      clean.find("mg_map_read_latency_ns")->hist.count());
        }
    }
}

TEST_F(ResiliencePipelineFixture, FailureReportIsSortedOnEveryScheduler)
{
    const sched::SchedulerKind kinds[] = {
        sched::SchedulerKind::OmpDynamic,
        sched::SchedulerKind::VgBatch,
        sched::SchedulerKind::WorkStealing,
    };
    for (sched::SchedulerKind kind : kinds) {
        fault::disarmAll();
        // Persistent poison on a spread of reads: several batches fail
        // and bisect, in a thread-dependent order.
        fault::armFromText("map.read=throw,after=50");
        giraffe::ParentParams params = baseParams(/*threads=*/4);
        params.scheduler = kind;
        giraffe::ParentOutputs outputs = runParent(params);

        ASSERT_FALSE(outputs.failures.ok())
            << sched::schedulerName(kind);
        EXPECT_TRUE(std::is_sorted(
            outputs.failures.batches.begin(),
            outputs.failures.batches.end(),
            [](const sched::BatchFailure& a, const sched::BatchFailure& b) {
                return a.begin != b.begin ? a.begin < b.begin
                                          : a.end < b.end;
            }))
            << sched::schedulerName(kind);
        EXPECT_TRUE(std::is_sorted(
            outputs.failures.poisoned.begin(),
            outputs.failures.poisoned.end(),
            [](const sched::ItemFailure& a, const sched::ItemFailure& b) {
                return a.index < b.index;
            }))
            << sched::schedulerName(kind);
    }
}

} // namespace
} // namespace mg::resilience
