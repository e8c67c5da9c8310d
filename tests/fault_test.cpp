/**
 * Fault-injection harness tests: registry determinism, the injection
 * kinds, guarded scheduling with quarantine, and the end-to-end failure
 * scenario of the robustness acceptance criteria — a parent run with
 * faults armed at the decoder and inside the workers must complete,
 * report what fired, and keep its output for healthy reads identical to
 * a fault-free run.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <new>
#include <numeric>
#include <vector>

#include "fault/fault.h"
#include "giraffe/parent.h"
#include "giraffe/proxy.h"
#include "io/gaf.h"
#include "io/mgz.h"
#include "sched/failure.h"
#include "sched/scheduler.h"
#include "sim/input_sets.h"
#include "test_paths.h"
#include "util/status.h"

namespace mg::fault {
namespace {

/** Every test leaves the registry clean. */
class FaultFixture : public ::testing::Test
{
  protected:
    void SetUp() override { disarmAll(); }
    void TearDown() override { disarmAll(); }
};

TEST_F(FaultFixture, NothingArmedIsANoOp)
{
    EXPECT_FALSE(anyArmed());
    EXPECT_FALSE(fire("some.site").has_value());
    inject("some.site"); // must not throw
    std::vector<uint8_t> bytes = { 1, 2, 3 };
    EXPECT_FALSE(corrupted("some.site", bytes).has_value());
}

TEST_F(FaultFixture, ArmDisarmTracksArmedState)
{
    arm("a.site", {});
    EXPECT_TRUE(anyArmed());
    disarm("a.site");
    EXPECT_FALSE(anyArmed());
    arm("a.site", {});
    arm("b.site", {});
    disarmAll();
    EXPECT_FALSE(anyArmed());
}

TEST_F(FaultFixture, FiringIsDeterministicForASeed)
{
    Spec spec;
    spec.probability = 0.5;
    spec.seed = 42;

    auto pattern = [&] {
        arm("det.site", spec);
        std::vector<bool> fired;
        for (int i = 0; i < 200; ++i) {
            fired.push_back(fire("det.site").has_value());
        }
        disarmAll();
        return fired;
    };
    std::vector<bool> first = pattern();
    std::vector<bool> second = pattern();
    EXPECT_EQ(first, second);

    // Roughly half fire (deterministic, so an exact count each run).
    size_t fires = 0;
    for (bool f : first) {
        fires += f ? 1 : 0;
    }
    EXPECT_GT(fires, 50u);
    EXPECT_LT(fires, 150u);

    // A different seed gives a different pattern.
    spec.seed = 43;
    EXPECT_NE(pattern(), first);
}

TEST_F(FaultFixture, AfterAndLimitWindowTheFires)
{
    Spec spec;
    spec.after = 3;
    spec.limit = 2;
    arm("win.site", spec);
    std::vector<bool> fired;
    for (int i = 0; i < 10; ++i) {
        fired.push_back(fire("win.site").has_value());
    }
    std::vector<bool> expected = { false, false, false, true, true,
                                   false, false, false, false, false };
    EXPECT_EQ(fired, expected);

    SiteStats site_stats = stats("win.site");
    EXPECT_EQ(site_stats.hits, 10u);
    EXPECT_EQ(site_stats.fires, 2u);
}

TEST_F(FaultFixture, InjectThrowCarriesStatus)
{
    arm("throw.site", {});
    try {
        inject("throw.site");
        FAIL() << "expected StatusError";
    } catch (const util::StatusError& e) {
        EXPECT_EQ(e.status().code, util::StatusCode::FaultInjected);
        EXPECT_EQ(e.status().section, "throw.site");
    }
}

TEST_F(FaultFixture, InjectAllocFailThrowsBadAlloc)
{
    Spec spec;
    spec.kind = Kind::AllocFail;
    arm("alloc.site", spec);
    EXPECT_THROW(inject("alloc.site"), std::bad_alloc);
}

TEST_F(FaultFixture, CorruptedMutatesDeterministically)
{
    std::vector<uint8_t> bytes(256);
    for (size_t i = 0; i < bytes.size(); ++i) {
        bytes[i] = static_cast<uint8_t>(i);
    }

    Spec spec;
    spec.kind = Kind::Corrupt;
    spec.seed = 7;
    arm("buf.site", spec);
    auto first = corrupted("buf.site", bytes);
    ASSERT_TRUE(first.has_value());
    EXPECT_NE(*first, bytes);
    EXPECT_EQ(first->size(), bytes.size());

    // Re-arming resets the hit counter: the same mutation comes back.
    arm("buf.site", spec);
    auto second = corrupted("buf.site", bytes);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(*first, *second);

    Spec trunc;
    trunc.kind = Kind::Truncate;
    trunc.seed = 7;
    arm("buf.site", trunc);
    auto cut = corrupted("buf.site", bytes);
    ASSERT_TRUE(cut.has_value());
    EXPECT_LT(cut->size(), bytes.size());
}

TEST_F(FaultFixture, ArmFromTextParsesClauses)
{
    armFromText("x.site=throw,p=0.5,seed=9,after=2,limit=4;"
                "y.site=stall,stall=1");
    EXPECT_TRUE(anyArmed());
    // Consume hits on x.site: first two never fire (after=2).
    EXPECT_FALSE(fire("x.site").has_value());
    EXPECT_FALSE(fire("x.site").has_value());
    inject("y.site"); // stall returns, must not throw

    EXPECT_THROW(armFromText("z.site=explode"), util::Error);
    EXPECT_THROW(armFromText("no-equals-sign"), util::Error);
    EXPECT_THROW(armFromText("z.site=throw,bogus=1"), util::Error);
}

// ------------------------------------------------------------ runGuarded

TEST_F(FaultFixture, RunGuardedCleanRunReportsNoFailures)
{
    auto scheduler = sched::makeScheduler(sched::SchedulerKind::WorkStealing);
    std::vector<std::atomic<int>> seen(100);
    sched::FailureReport report = sched::runGuarded(
        *scheduler, 100, 8, 4, [&](size_t, size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
                seen[i].fetch_add(1);
            }
        });
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.summary(), "no failures");
    for (const auto& count : seen) {
        EXPECT_EQ(count.load(), 1);
    }
}

TEST_F(FaultFixture, RunGuardedRecoversTransientFailure)
{
    auto scheduler = sched::makeScheduler(sched::SchedulerKind::Static);
    std::atomic<bool> threw{false};
    std::vector<std::atomic<int>> seen(64);
    sched::FailureReport report = sched::runGuarded(
        *scheduler, 64, 8, 2, [&](size_t, size_t begin, size_t end) {
            if (begin == 16 && !threw.exchange(true)) {
                throw util::Error("transient worker death");
            }
            for (size_t i = begin; i < end; ++i) {
                seen[i].fetch_add(1);
            }
        });
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.batches.size(), 1u);
    EXPECT_EQ(report.batches[0].begin, 16u);
    EXPECT_EQ(report.batches[0].end, 24u);
    EXPECT_TRUE(report.batches[0].recovered);
    EXPECT_NE(report.batches[0].what.find("transient"), std::string::npos);
    EXPECT_TRUE(report.poisoned.empty());
    for (const auto& count : seen) {
        EXPECT_EQ(count.load(), 1); // recovered batch ran exactly once
    }
}

TEST_F(FaultFixture, RunGuardedQuarantinesPoisonedItems)
{
    auto scheduler = sched::makeScheduler(sched::SchedulerKind::OmpDynamic);
    std::vector<std::atomic<int>> seen(100);
    sched::FailureReport report = sched::runGuarded(
        *scheduler, 100, 10, 4, [&](size_t, size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
                if (i == 37 || i == 73) {
                    throw util::Error("poisoned item");
                }
                seen[i].fetch_add(1);
            }
        });
    EXPECT_FALSE(report.ok());
    ASSERT_EQ(report.poisoned.size(), 2u);
    std::vector<size_t> poisoned = { report.poisoned[0].index,
                                     report.poisoned[1].index };
    std::sort(poisoned.begin(), poisoned.end());
    EXPECT_EQ(poisoned, (std::vector<size_t>{ 37, 73 }));
    for (const sched::BatchFailure& failure : report.batches) {
        EXPECT_FALSE(failure.recovered);
    }
    // Every healthy item — including the poisoned items' batchmates —
    // was processed at least once via bisection.
    for (size_t i = 0; i < seen.size(); ++i) {
        if (i == 37 || i == 73) {
            continue;
        }
        EXPECT_GE(seen[i].load(), 1) << "item " << i << " lost";
    }
}

TEST_F(FaultFixture, RunGuardedFiresSchedWorkerFaultPoint)
{
    armFromText("sched.worker=throw,limit=2");
    auto scheduler = sched::makeScheduler(sched::SchedulerKind::VgBatch);
    std::vector<std::atomic<int>> seen(80);
    sched::FailureReport report = sched::runGuarded(
        *scheduler, 80, 8, 4, [&](size_t, size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) {
                seen[i].fetch_add(1);
            }
        });
    EXPECT_EQ(report.batches.size(), 2u);
    for (const sched::BatchFailure& failure : report.batches) {
        EXPECT_TRUE(failure.recovered); // limit exhausted before retry
        EXPECT_NE(failure.what.find("sched.worker"), std::string::npos);
    }
    EXPECT_TRUE(report.poisoned.empty());
    for (const auto& count : seen) {
        EXPECT_EQ(count.load(), 1);
    }
    EXPECT_GE(stats("sched.worker").fires, 2u);
}

// ------------------------------------------------------------ end-to-end

/** Small mapping world for the acceptance scenario. */
class FaultPipelineFixture : public FaultFixture
{
  protected:
    void
    SetUp() override
    {
        FaultFixture::SetUp();
        sim::PangenomeParams pparams;
        pparams.seed = 901;
        pparams.backboneLength = 8000;
        pparams.haplotypes = 4;
        pg_ = sim::generatePangenome(pparams);

        index::MinimizerParams mparams;
        mparams.k = 15;
        mparams.w = 8;
        minimizers_ = index::MinimizerIndex(pg_.graph, mparams);
        distance_ = index::DistanceIndex(pg_.graph);

        sim::ReadSimParams rparams;
        rparams.seed = 902;
        rparams.count = 80;
        rparams.readLength = 100;
        rparams.errorRate = 0.005;
        reads_ = sim::simulateReads(pg_, rparams);
    }

    giraffe::ParentOutputs
    runParent(size_t threads, size_t batch_size = 8)
    {
        giraffe::ParentParams params;
        params.numThreads = threads;
        params.batchSize = batch_size;
        giraffe::ParentEmulator parent(pg_.graph, pg_.gbwt, minimizers_,
                                       distance_, params);
        return parent.run(reads_);
    }

    sim::GeneratedPangenome pg_;
    index::MinimizerIndex minimizers_;
    index::DistanceIndex distance_;
    map::ReadSet reads_;
};

TEST_F(FaultPipelineFixture, MgzDecodeFaultIsStructuredAndTransient)
{
    const std::string path = testPath("armed.mgz3");
    io::saveMgz3(path, pg_.graph, pg_.gbwt, minimizers_, distance_);

    armFromText("io.mgz.load=corrupt,limit=1");
    try {
        io::loadPangenome(path);
        FAIL() << "expected a structured load error";
    } catch (const util::StatusError& e) {
        EXPECT_NE(e.status().code, util::StatusCode::Ok);
        EXPECT_EQ(e.status().file, path);
    }
    // The fault's limit is exhausted: the retry loads cleanly.
    io::IndexedPangenome loaded = io::loadPangenome(path);
    EXPECT_EQ(loaded.graph.numNodes(), pg_.graph.numNodes());
    EXPECT_EQ(loaded.gbwt.numPaths(), pg_.gbwt.numPaths());
    EXPECT_EQ(stats("io.mgz.load").fires, 1u);
}

TEST_F(FaultPipelineFixture, ParentRunCompletesUnderWorkerFaults)
{
    giraffe::ParentOutputs baseline = runParent(4);
    ASSERT_TRUE(baseline.failures.ok());

    armFromText("sched.worker=throw,limit=3");
    giraffe::ParentOutputs faulted = runParent(4);

    // The run completed and the report names the injected failures.
    EXPECT_EQ(faulted.failures.batches.size(), 3u);
    for (const sched::BatchFailure& failure : faulted.failures.batches) {
        EXPECT_TRUE(failure.recovered);
    }
    EXPECT_TRUE(faulted.failures.poisoned.empty());
    EXPECT_EQ(stats("sched.worker").fires, 3u);

    // Every read still got its fault-free alignment.
    ASSERT_EQ(faulted.alignments.size(), baseline.alignments.size());
    for (size_t i = 0; i < baseline.alignments.size(); ++i) {
        EXPECT_EQ(faulted.alignments[i].readName,
                  baseline.alignments[i].readName);
        EXPECT_EQ(faulted.alignments[i].mapped,
                  baseline.alignments[i].mapped);
        EXPECT_EQ(faulted.alignments[i].score,
                  baseline.alignments[i].score);
    }
    EXPECT_EQ(io::formatGaf(faulted.alignments, reads_, pg_.graph),
              io::formatGaf(baseline.alignments, reads_, pg_.graph));
}

TEST_F(FaultPipelineFixture, PoisonedReadsAreQuarantinedNotFatal)
{
    giraffe::ParentOutputs baseline = runParent(4);

    // Persistent per-read poison: every mapping attempt after the first
    // 60 throws, so retries cannot clear it and bisection must isolate
    // the poisoned reads.
    armFromText("map.read=throw,after=60");
    giraffe::ParentOutputs faulted = runParent(4);

    EXPECT_FALSE(faulted.failures.ok());
    EXPECT_FALSE(faulted.failures.poisoned.empty());

    std::vector<bool> poisoned(reads_.size(), false);
    for (const sched::ItemFailure& item : faulted.failures.poisoned) {
        ASSERT_LT(item.index, reads_.size());
        poisoned[item.index] = true;
        EXPECT_NE(item.what.find("map.read"), std::string::npos);
    }
    for (size_t i = 0; i < reads_.size(); ++i) {
        EXPECT_EQ(faulted.alignments[i].readName, reads_.reads[i].name);
        if (poisoned[i]) {
            EXPECT_FALSE(faulted.alignments[i].mapped);
            EXPECT_TRUE(faulted.extensions[i].extensions.empty());
        } else {
            EXPECT_EQ(faulted.alignments[i].mapped,
                      baseline.alignments[i].mapped);
            EXPECT_EQ(faulted.alignments[i].score,
                      baseline.alignments[i].score);
        }
    }
    // The GAF renders quarantined reads as unmapped records instead of
    // dropping them.
    std::string gaf = io::formatGaf(faulted.alignments, reads_, pg_.graph);
    size_t lines = static_cast<size_t>(
        std::count(gaf.begin(), gaf.end(), '\n'));
    EXPECT_EQ(lines, reads_.size());
}

TEST_F(FaultPipelineFixture, KeyedReadFaultPoisonsTheSameReadsAtAnyThreadCount)
{
    // "map.read" decides on the read's input index, not on a hit counter
    // the workers share, so which reads a persistent fault quarantines
    // does not depend on which worker reaches them first: two 4-thread
    // runs and a 1-thread run poison the same reads and write the same
    // GAF.  The probabilistic spec draws per read index too.
    auto poisoned_reads = [](const giraffe::ParentOutputs& outputs) {
        std::vector<size_t> indexes;
        for (const sched::ItemFailure& item : outputs.failures.poisoned) {
            indexes.push_back(item.index);
        }
        std::sort(indexes.begin(), indexes.end());
        return indexes;
    };
    for (const char* spec :
         {"map.read=throw,after=60", "map.read=throw,p=0.25,seed=11"}) {
        SCOPED_TRACE(spec);
        std::vector<std::vector<size_t>> poisoned;
        std::vector<std::string> gafs;
        for (const size_t threads : {size_t{4}, size_t{4}, size_t{1}}) {
            armFromText(spec); // re-arming resets the site's counters
            const giraffe::ParentOutputs outputs = runParent(threads);
            poisoned.push_back(poisoned_reads(outputs));
            gafs.push_back(
                io::formatGaf(outputs.alignments, reads_, pg_.graph));
        }
        ASSERT_FALSE(poisoned[0].empty());
        EXPECT_EQ(poisoned[1], poisoned[0]);
        EXPECT_EQ(poisoned[2], poisoned[0]);
        EXPECT_EQ(gafs[1], gafs[0]);
        EXPECT_EQ(gafs[2], gafs[0]);
        if (std::string(spec).find("after=60") != std::string::npos) {
            std::vector<size_t> expected(reads_.size() - 60);
            std::iota(expected.begin(), expected.end(), size_t{60});
            EXPECT_EQ(poisoned[0], expected);
        }
    }
}

TEST_F(FaultPipelineFixture, DisarmedRunsAreByteIdentical)
{
    giraffe::ParentOutputs baseline = runParent(4);

    armFromText("sched.worker=throw,limit=2;map.read=throw,limit=5");
    giraffe::ParentOutputs faulted = runParent(4);
    disarmAll();
    giraffe::ParentOutputs clean = runParent(4);

    EXPECT_FALSE(faulted.failures.ok());
    EXPECT_TRUE(clean.failures.ok());
    EXPECT_EQ(io::encodeExtensions(clean.extensions),
              io::encodeExtensions(baseline.extensions));
    EXPECT_EQ(io::formatGaf(clean.alignments, reads_, pg_.graph),
              io::formatGaf(baseline.alignments, reads_, pg_.graph));
}

TEST_F(FaultPipelineFixture, ProxyQuarantineKeepsReadNames)
{
    io::SeedCapture capture;
    capture.entries.reserve(reads_.size());
    for (const map::Read& read : reads_.reads) {
        io::ReadWithSeeds entry;
        entry.read = read;
        entry.seeds = map::findSeeds(minimizers_, read, {});
        capture.entries.push_back(std::move(entry));
    }

    giraffe::ProxyParams params;
    params.numThreads = 2;
    params.batchSize = 8;
    giraffe::ProxyRunner proxy(pg_.graph, pg_.gbwt, distance_, params);

    armFromText("map.read=throw,after=50");
    giraffe::ProxyOutputs outputs = proxy.run(capture);

    EXPECT_FALSE(outputs.failures.ok());
    EXPECT_FALSE(outputs.failures.poisoned.empty());
    EXPECT_EQ(outputs.readsMapped + outputs.failures.poisoned.size(),
              reads_.size());
    for (const sched::ItemFailure& item : outputs.failures.poisoned) {
        EXPECT_EQ(outputs.extensions[item.index].readName,
                  reads_.reads[item.index].name);
        EXPECT_TRUE(outputs.extensions[item.index].extensions.empty());
    }
}

} // namespace
} // namespace mg::fault
