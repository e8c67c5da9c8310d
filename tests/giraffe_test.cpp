/**
 * Tests for the parent emulator, the proxy runner, and — centrally — the
 * paper's functional validation (Section VI-a): the proxy's critical-
 * function output must match the parent's exactly, for every input set
 * workflow, across schedulers and thread counts.
 */
#include <gtest/gtest.h>

#include "giraffe/parent.h"
#include "giraffe/proxy.h"
#include "machine/tracer.h"
#include "sim/input_sets.h"
#include "test_paths.h"

namespace mg::giraffe {
namespace {

/** Small end-to-end world shared by the tests. */
class PipelineFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sim::PangenomeParams pparams;
        pparams.seed = 201;
        pparams.backboneLength = 10000;
        pparams.haplotypes = 6;
        pg_ = sim::generatePangenome(pparams);

        index::MinimizerParams mparams;
        mparams.k = 15;
        mparams.w = 8;
        minimizers_ = index::MinimizerIndex(pg_.graph, mparams);
        distance_ = index::DistanceIndex(pg_.graph);

        sim::ReadSimParams rparams;
        rparams.seed = 202;
        rparams.count = 120;
        rparams.readLength = 120;
        rparams.errorRate = 0.005;
        reads_ = sim::simulateReads(pg_, rparams);
    }

    ParentEmulator
    makeParent(size_t threads = 1) const
    {
        ParentParams params;
        params.numThreads = threads;
        return ParentEmulator(pg_.graph, pg_.gbwt, minimizers_, distance_,
                              params);
    }

    sim::GeneratedPangenome pg_;
    index::MinimizerIndex minimizers_;
    index::DistanceIndex distance_;
    map::ReadSet reads_;
};

TEST_F(PipelineFixture, ParentMapsMostReads)
{
    ParentEmulator parent = makeParent();
    ParentOutputs outputs = parent.run(reads_);
    ASSERT_EQ(outputs.alignments.size(), reads_.size());
    size_t mapped = 0;
    for (const Alignment& alignment : outputs.alignments) {
        if (alignment.mapped) {
            ++mapped;
        }
    }
    // Low error rate: nearly everything maps.
    EXPECT_GT(mapped * 10, reads_.size() * 9);
}

TEST_F(PipelineFixture, AlignmentsCarrySaneFields)
{
    ParentEmulator parent = makeParent();
    ParentOutputs outputs = parent.run(reads_);
    for (size_t i = 0; i < outputs.alignments.size(); ++i) {
        const Alignment& alignment = outputs.alignments[i];
        EXPECT_EQ(alignment.readName, reads_.reads[i].name);
        if (!alignment.mapped) {
            continue;
        }
        EXPECT_FALSE(alignment.path.empty());
        EXPECT_LT(alignment.readBegin, alignment.readEnd);
        EXPECT_LE(alignment.readEnd, reads_.reads[i].sequence.size());
        EXPECT_LE(alignment.mappingQuality, 60);
    }
}

TEST_F(PipelineFixture, CacheStatsAccumulate)
{
    ParentEmulator parent = makeParent();
    ParentOutputs outputs = parent.run(reads_);
    EXPECT_GT(outputs.tally.cache().lookups, 0u);
    EXPECT_GT(outputs.tally.cache().hits, 0u);
    EXPECT_GT(outputs.tally.cache().decodes, 0u);
}

TEST_F(PipelineFixture, ProfilerSeesThePaperRegions)
{
    ParentEmulator parent = makeParent();
    perf::Profiler profiler;
    parent.run(reads_, &profiler);
    EXPECT_GT(profiler.regionSeconds(perf::Stage::FindSeeds), 0.0);
    EXPECT_GT(profiler.regionSeconds(perf::Stage::ClusterSeeds), 0.0);
    EXPECT_GT(profiler.regionSeconds(perf::Stage::ProcessUntilThresholdC),
              0.0);
    EXPECT_GT(profiler.regionSeconds(perf::Stage::ScoreExtensions), 0.0);
    EXPECT_GT(profiler.regionSeconds(perf::Stage::Align), 0.0);
    // Extension nests inside process_until_threshold_c.
    EXPECT_LE(profiler.regionSeconds(perf::Stage::Extend),
              profiler.regionSeconds(perf::Stage::ProcessUntilThresholdC) +
                  1e-6);
}

TEST_F(PipelineFixture, CaptureContainsEveryRead)
{
    ParentEmulator parent = makeParent();
    io::SeedCapture capture = parent.capturePreprocessing(reads_);
    ASSERT_EQ(capture.entries.size(), reads_.size());
    size_t with_seeds = 0;
    for (size_t i = 0; i < capture.entries.size(); ++i) {
        EXPECT_EQ(capture.entries[i].read.name, reads_.reads[i].name);
        if (!capture.entries[i].seeds.empty()) {
            ++with_seeds;
        }
    }
    EXPECT_GT(with_seeds * 10, reads_.size() * 9);
}

// ------------------------------------------------ functional validation

TEST_F(PipelineFixture, ProxyOutputExactlyMatchesParent)
{
    // The paper's Section VI-a: export parent extensions, run the proxy
    // from the captured seeds, compare.  Expect a 100% match.
    ParentEmulator parent = makeParent();
    ParentOutputs parent_out = parent.run(reads_);
    io::SeedCapture capture = parent.capturePreprocessing(reads_);

    ProxyParams pparams;
    ProxyRunner proxy(pg_.graph, pg_.gbwt, distance_, pparams);
    ProxyOutputs proxy_out = proxy.run(capture);

    io::ValidationReport report =
        io::validateExtensions(parent_out.extensions,
                               proxy_out.extensions);
    EXPECT_TRUE(report.perfectMatch())
        << "missing=" << report.missing
        << " unexpected=" << report.unexpected;
    EXPECT_EQ(report.extensionsExpected, report.extensionsFound);
    EXPECT_GT(report.extensionsExpected, 0u);
}

TEST_F(PipelineFixture, ValidationHoldsAcrossSchedulersAndThreads)
{
    ParentEmulator parent = makeParent();
    ParentOutputs parent_out = parent.run(reads_);
    io::SeedCapture capture = parent.capturePreprocessing(reads_);

    for (sched::SchedulerKind kind :
         {sched::SchedulerKind::OmpDynamic, sched::SchedulerKind::VgBatch,
          sched::SchedulerKind::WorkStealing}) {
        for (size_t threads : {1, 4}) {
            ProxyParams pparams;
            pparams.scheduler = kind;
            pparams.numThreads = threads;
            pparams.batchSize = 16;
            ProxyRunner proxy(pg_.graph, pg_.gbwt, distance_, pparams);
            ProxyOutputs proxy_out = proxy.run(capture);
            io::ValidationReport report = io::validateExtensions(
                parent_out.extensions, proxy_out.extensions);
            EXPECT_TRUE(report.perfectMatch())
                << sched::schedulerName(kind) << " threads=" << threads
                << " missing=" << report.missing
                << " unexpected=" << report.unexpected;
        }
    }
}

TEST_F(PipelineFixture, ValidationHoldsAcrossCacheCapacities)
{
    ParentEmulator parent = makeParent();
    ParentOutputs parent_out = parent.run(reads_);
    io::SeedCapture capture = parent.capturePreprocessing(reads_);
    for (size_t capacity : {size_t{0}, size_t{2}, size_t{4096}}) {
        ProxyParams pparams;
        pparams.mapper.gbwtCacheCapacity = capacity;
        ProxyRunner proxy(pg_.graph, pg_.gbwt, distance_, pparams);
        ProxyOutputs proxy_out = proxy.run(capture);
        io::ValidationReport report = io::validateExtensions(
            parent_out.extensions, proxy_out.extensions);
        EXPECT_TRUE(report.perfectMatch()) << "capacity=" << capacity;
    }
}

TEST_F(PipelineFixture, CaptureRoundTripThroughDiskPreservesValidation)
{
    // The proxy's real input path: capture -> .bin file -> load -> run.
    ParentEmulator parent = makeParent();
    ParentOutputs parent_out = parent.run(reads_);
    io::SeedCapture capture = parent.capturePreprocessing(reads_);
    std::string path = testPath("mg_capture.bin");
    io::saveSeedCapture(path, capture);
    io::SeedCapture loaded = io::loadSeedCapture(path);

    ProxyRunner proxy(pg_.graph, pg_.gbwt, distance_, ProxyParams());
    ProxyOutputs proxy_out = proxy.run(loaded);
    io::ValidationReport report = io::validateExtensions(
        parent_out.extensions, proxy_out.extensions);
    EXPECT_TRUE(report.perfectMatch());
}

TEST_F(PipelineFixture, MultithreadedParentMatchesSingleThreaded)
{
    ParentEmulator single = makeParent(1);
    ParentEmulator multi = makeParent(4);
    ParentOutputs a = single.run(reads_);
    ParentOutputs b = multi.run(reads_);
    io::ValidationReport report =
        io::validateExtensions(a.extensions, b.extensions);
    EXPECT_TRUE(report.perfectMatch());
}

TEST_F(PipelineFixture, TracedRunProducesCounters)
{
    ParentEmulator parent = makeParent(1);
    machine::TraceCounter tracer(machine::paperMachines());
    parent.run(reads_, nullptr, &tracer);
    EXPECT_GT(tracer.work().instructions, 0u);
    EXPECT_GT(tracer.countersFor("local-intel").l1Accesses, 0u);
}

TEST_F(PipelineFixture, TracerRejectsMultithreadedRun)
{
    ParentEmulator parent = makeParent(2);
    machine::TraceCounter tracer(machine::paperMachines());
    EXPECT_THROW(parent.run(reads_, nullptr, &tracer), util::Error);
}

// --------------------------------------------------------- post-process

TEST(PostProcessTest, UnmappedWhenNoExtensions)
{
    Alignment alignment = postProcess("r", {}, PostProcessParams());
    EXPECT_FALSE(alignment.mapped);
    EXPECT_EQ(alignment.readName, "r");
}

TEST(PostProcessTest, UniquePlacementGetsMapqCap)
{
    map::GaplessExtension ext;
    ext.path = {graph::Handle(1, false)};
    ext.readEnd = 100;
    ext.score = 100;
    Alignment alignment = postProcess("r", {ext}, PostProcessParams());
    EXPECT_TRUE(alignment.mapped);
    EXPECT_EQ(alignment.mappingQuality, 60);
    EXPECT_EQ(alignment.score, 100);
}

TEST(PostProcessTest, CloseRunnerUpLowersMapq)
{
    map::GaplessExtension best;
    best.path = {graph::Handle(1, false)};
    best.readEnd = 100;
    best.score = 100;
    map::GaplessExtension rival = best;
    rival.path = {graph::Handle(2, false)};
    rival.score = 97;
    Alignment alignment =
        postProcess("r", {best, rival}, PostProcessParams());
    EXPECT_TRUE(alignment.mapped);
    EXPECT_EQ(alignment.mappingQuality, 3);
    EXPECT_EQ(alignment.path, best.path);
}

TEST(PostProcessTest, LowScoringExtensionsAreFiltered)
{
    map::GaplessExtension best;
    best.path = {graph::Handle(1, false)};
    best.readEnd = 100;
    best.score = 100;
    map::GaplessExtension weak = best;
    weak.path = {graph::Handle(2, false)};
    weak.score = 10; // below keepFraction * 100
    Alignment alignment =
        postProcess("r", {best, weak}, PostProcessParams());
    // The weak rival is dropped, so the placement counts as unique.
    EXPECT_EQ(alignment.mappingQuality, 60);
}

} // namespace
} // namespace mg::giraffe
