/**
 * Kernel-matrix suite: the extension engine's building blocks checked
 * against the formulations they replaced — the one-pass
 * successorStatesInto against per-edge extend(), and the score prefilter
 * against an unfiltered run.  (The match kernel itself is pinned by
 * packed_dna_test, and the whole walk by golden_kernel_test.)
 *
 * Registered under the `kernel-matrix` ctest label; the asan/tsan presets
 * include it so these walks also run sanitized.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "giraffe/parent.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/reads_bin.h"
#include "map/mapper.h"
#include "sim/input_sets.h"

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
