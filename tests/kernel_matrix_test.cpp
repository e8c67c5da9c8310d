/**
 * Kernel-matrix suite: every KernelVariant must be observably identical.
 * The dispatch layer (util/simd) promises that Scalar, Swar, Simd, and
 * Auto produce the same match lengths, so the full pipeline must emit
 * byte-identical GAF under every variant.  The suite also pins the
 * degrade path (a Simd request on a CPU without wide units falls back to
 * Swar and keeps working, never crashes) and the one-pass
 * successorStatesInto against the per-edge extend() formulation it
 * replaced.
 *
 * Registered under the `kernel-matrix` ctest label; the asan/tsan presets
 * include it so the forced-variant walks also run sanitized.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "giraffe/alignment.h"
#include "giraffe/parent.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/gaf.h"
#include "io/reads_bin.h"
#include "map/mapper.h"
#include "sim/input_sets.h"
#include "util/simd.h"

namespace mg::map {
namespace {

struct MatrixWorld
{
    sim::InputSet set;
    index::MinimizerIndex minimizers;
    index::DistanceIndex distance;
    io::SeedCapture capture;
};

MatrixWorld
buildWorld(const std::string& input_set, double scale)
{
    MatrixWorld world;
    world.set = sim::buildInputSet(sim::inputSetSpec(input_set), scale);
    index::MinimizerParams mparams;
    mparams.k = 15;
    mparams.w = 8;
    world.minimizers =
        index::MinimizerIndex(world.set.pangenome.graph, mparams);
    world.distance = index::DistanceIndex(world.set.pangenome.graph);
    giraffe::ParentEmulator parent(world.set.pangenome.graph,
                                   world.set.pangenome.gbwt,
                                   world.minimizers, world.distance,
                                   giraffe::ParentParams());
    world.capture = parent.capturePreprocessing(world.set.reads);
    return world;
}

/** Map every captured read under one kernel variant. */
struct PipelineRun
{
    std::vector<MapResult> results;
    std::string gaf;
};

PipelineRun
runPipeline(const MatrixWorld& world, util::KernelVariant kernel)
{
    MapperParams params;
    params.extend.kernel = kernel;
    Mapper mapper(world.set.pangenome.graph, world.set.pangenome.gbwt,
                  world.minimizers, world.distance, params);
    auto state = mapper.makeState();

    PipelineRun run;
    std::vector<giraffe::Alignment> alignments;
    ReadSet reads;
    for (const io::ReadWithSeeds& entry : world.capture.entries) {
        MapResult result =
            mapper.mapFromSeeds(entry.read, entry.seeds, *state);
        alignments.push_back(giraffe::postProcess(
            entry.read.name, result.extensions,
            giraffe::PostProcessParams()));
        reads.reads.push_back(entry.read);
        run.results.push_back(std::move(result));
    }
    run.gaf = io::formatGaf(alignments, reads, world.set.pangenome.graph);
    return run;
}

void
expectIdenticalResults(const PipelineRun& got, const PipelineRun& ref,
                       const std::string& combo)
{
    ASSERT_EQ(got.results.size(), ref.results.size()) << combo;
    for (size_t r = 0; r < got.results.size(); ++r) {
        const MapResult& g = got.results[r];
        const MapResult& e = ref.results[r];
        ASSERT_EQ(g.extensions.size(), e.extensions.size())
            << combo << " read " << r;
        for (size_t i = 0; i < g.extensions.size(); ++i) {
            EXPECT_EQ(g.extensions[i], e.extensions[i])
                << combo << " read " << r << " extension " << i;
            EXPECT_EQ(g.extensions[i].str(), e.extensions[i].str())
                << combo << " read " << r << " extension " << i;
        }
    }
    EXPECT_EQ(got.gaf, ref.gaf)
        << combo << ": GAF must be byte-identical";
}

class KernelMatrix : public ::testing::TestWithParam<const char*>
{};

TEST_P(KernelMatrix, GafByteIdenticalAcrossVariants)
{
    MatrixWorld world = buildWorld(GetParam(), 0.04);
    ASSERT_FALSE(world.capture.entries.empty());

    // Reference: the scalar oracle.
    PipelineRun ref = runPipeline(world, util::KernelVariant::Scalar);
    EXPECT_FALSE(ref.gaf.empty());

    const util::KernelVariant variants[] = {
        util::KernelVariant::Scalar,
        util::KernelVariant::Swar,
        util::KernelVariant::Simd,
        util::KernelVariant::Auto,
    };
    for (util::KernelVariant variant : variants) {
        PipelineRun got = runPipeline(world, variant);
        expectIdenticalResults(got, ref,
                               util::kernelVariantName(variant));
    }
}

INSTANTIATE_TEST_SUITE_P(InputSets, KernelMatrix,
                         ::testing::Values("A-human", "B-yeast"));

/**
 * A Simd request on any CPU resolves to something runnable: the widest
 * compiled-and-available level, or the Swar fallback when the host has no
 * wide units — and the resolved kernel actually maps reads.  This is the
 * degrade path CI machines without AVX exercise for real.
 */
TEST(KernelMatrixDispatch, SimdRequestAlwaysResolvesRunnable)
{
    const util::ResolvedKernel kernel =
        util::resolveKernel(util::KernelVariant::Simd);
    EXPECT_NE(kernel.fn, nullptr);
    if (kernel.level == util::SimdLevel::None) {
        // No wide ISA on this host: the request degrades to Swar.
        EXPECT_EQ(kernel.effective, util::KernelVariant::Swar);
    } else {
        EXPECT_EQ(kernel.effective, util::KernelVariant::Simd);
    }

    MatrixWorld world = buildWorld("B-yeast", 0.02);
    PipelineRun got = runPipeline(world, util::KernelVariant::Simd);
    PipelineRun ref = runPipeline(world, util::KernelVariant::Swar);
    expectIdenticalResults(got, ref, "simd-degrade");
}

/**
 * The one-pass successorStatesInto against the per-edge extend()
 * formulation it replaced, over every node record and a sweep of
 * haplotype sub-ranges.
 */
TEST(KernelMatrixGbwt, OnePassSuccessorStatesMatchesPerEdgeExtend)
{
    MatrixWorld world = buildWorld("B-yeast", 0.02);
    const gbwt::Gbwt& gbwt = world.set.pangenome.gbwt;
    const graph::VariationGraph& graph = world.set.pangenome.graph;
    size_t checked = 0;
    for (graph::NodeId id = 1; id <= graph.numNodes(); ++id) {
        for (bool flip : {false, true}) {
            const graph::Handle handle(id, flip);
            const gbwt::DecodedRecord record = gbwt.decodeRecord(handle);
            const uint64_t visits = record.numVisits();
            if (visits == 0) {
                continue;
            }
            // Full range plus narrowed sub-ranges, including the
            // single-visit edges of the range.
            const std::pair<uint64_t, uint64_t> ranges[] = {
                {0, visits},
                {0, std::min<uint64_t>(1, visits)},
                {visits - 1, visits},
                {visits / 3, visits - visits / 4},
            };
            for (const auto& [lo, hi] : ranges) {
                if (lo >= hi) {
                    continue;
                }
                const gbwt::SearchState state(handle, lo, hi);
                std::vector<gbwt::SearchState> got;
                record.successorStatesInto(state, got);
                std::vector<gbwt::SearchState> ref;
                for (const gbwt::RecordEdge& edge : record.edges()) {
                    if (!edge.successor.valid()) {
                        continue;
                    }
                    gbwt::SearchState next =
                        record.extend(state, edge.successor);
                    if (!next.empty()) {
                        ref.push_back(next);
                    }
                }
                ASSERT_EQ(got.size(), ref.size()) << handle.str();
                for (size_t i = 0; i < got.size(); ++i) {
                    EXPECT_EQ(got[i].node, ref[i].node) << handle.str();
                    EXPECT_EQ(got[i].start, ref[i].start) << handle.str();
                    EXPECT_EQ(got[i].end, ref[i].end) << handle.str();
                }
                ++checked;
            }
        }
    }
    EXPECT_GT(checked, 100u);
}

/**
 * The score prefilter: off by default (byte-identical golden output), and
 * when enabled it only ever removes extensions — each skipped seed is
 * counted in extensionsPrefiltered and the survivors are a subset of the
 * unfiltered run's extensions.
 */
TEST(KernelMatrixPrefilter, CountsSkipsAndNeverAddsExtensions)
{
    MatrixWorld world = buildWorld("B-yeast", 0.03);

    MapperParams base;
    ASSERT_EQ(base.prefilterFraction, 0.0) << "prefilter must default off";

    MapperParams filtered;
    filtered.prefilterFraction = 0.9;

    Mapper plain(world.set.pangenome.graph, world.set.pangenome.gbwt,
                 world.minimizers, world.distance, base);
    Mapper pruned(world.set.pangenome.graph, world.set.pangenome.gbwt,
                  world.minimizers, world.distance, filtered);
    auto plain_state = plain.makeState();
    auto pruned_state = pruned.makeState();

    uint64_t skipped = 0;
    for (const io::ReadWithSeeds& entry : world.capture.entries) {
        MapResult full =
            plain.mapFromSeeds(entry.read, entry.seeds, *plain_state);
        MapResult cut =
            pruned.mapFromSeeds(entry.read, entry.seeds, *pruned_state);
        EXPECT_EQ(full.extensionsPrefiltered, 0u);
        skipped += cut.extensionsPrefiltered;
        EXPECT_LE(cut.extensions.size(), full.extensions.size())
            << entry.read.name;
        // Every surviving extension exists verbatim in the full run.
        for (const GaplessExtension& ext : cut.extensions) {
            const bool present = std::any_of(
                full.extensions.begin(), full.extensions.end(),
                [&](const GaplessExtension& other) {
                    return other == ext && other.str() == ext.str();
                });
            EXPECT_TRUE(present) << entry.read.name;
        }
    }
    EXPECT_GT(skipped, 0u) << "an aggressive prefilter must skip seeds";
}

} // namespace
} // namespace mg::map
