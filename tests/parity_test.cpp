/**
 * Batch and serve map through one read driver, so they must give the
 * same answer for the same reads.  On the A-human and B-yeast analogs
 * (unpaired reads), the GAF rendered from ParentEmulator::run equals
 * MapSession::map's GAF byte for byte, with no budget and under a
 * deterministic step cap whose dg:Z: tags must match too; a request
 * through a real Daemon, serving the same indexes from a mapped .mgz3
 * container, returns the same bytes again, and the daemon's mapping
 * funnel and GBWT counters equal the (heap-index) batch run's.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>

#include "giraffe/parent.h"
#include "giraffe/session.h"
#include "io/gaf.h"
#include "io/mgz.h"
#include "obs/hub.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "sim/input_sets.h"
#include "test_paths.h"

namespace mg {
namespace {

/** One analog with its indexes, built once per input set. */
struct ParityWorld
{
    sim::InputSet set;
    index::MinimizerIndex minimizers;
    index::DistanceIndex distance;
};

ParityWorld
buildWorld(const std::string& input_set)
{
    ParityWorld world;
    world.set = sim::buildInputSet(sim::inputSetSpec(input_set), 0.05);
    index::MinimizerParams mparams;
    mparams.k = 15;
    mparams.w = 8;
    world.minimizers =
        index::MinimizerIndex(world.set.pangenome.graph, mparams);
    world.distance = index::DistanceIndex(world.set.pangenome.graph);
    return world;
}

/** The funnel and GBWT counters batch and serve must agree on. */
constexpr std::array<const char*, 9> kParityCounters = {
    "mg_map_reads_total",
    "mg_map_seeds_total",
    "mg_map_clusters_formed_total",
    "mg_map_clusters_processed_total",
    "mg_map_extensions_attempted_total",
    "mg_map_extensions_aborted_total{reason=\"covered\"}",
    "mg_map_extensions_emitted_total",
    "mg_gbwt_lookups_total",
    "mg_gbwt_decodes_total",
};

/** What the batch parent produced for one budget. */
struct BatchGaf
{
    std::string gaf;
    uint64_t mapped = 0;
    uint64_t degraded = 0;
    /** kParityCounters, as the run's hub exported them. */
    std::array<uint64_t, kParityCounters.size()> counters{};
};

BatchGaf
mapBatch(const ParityWorld& world, const resilience::WorkBudget& budget)
{
    giraffe::ParentParams params;
    params.budget = budget;
    giraffe::ParentEmulator parent(world.set.pangenome.graph,
                                   world.set.pangenome.gbwt,
                                   world.minimizers, world.distance, params);
    obs::Hub hub(params.numThreads);
    const giraffe::ParentOutputs out =
        parent.run(world.set.reads, nullptr, nullptr, &hub);
    BatchGaf batch;
    const obs::Snapshot metrics = hub.registry().snapshot();
    for (size_t c = 0; c < kParityCounters.size(); ++c) {
        batch.counters[c] = metrics.valueOf(kParityCounters[c]);
    }
    batch.gaf = io::formatGaf(out.alignments, world.set.reads,
                              world.set.pangenome.graph);
    for (const giraffe::Alignment& alignment : out.alignments) {
        batch.mapped += alignment.mapped ? 1 : 0;
        batch.degraded +=
            alignment.degraded != resilience::CancelReason::None ? 1 : 0;
    }
    return batch;
}

class BatchServeParity : public ::testing::TestWithParam<const char*>
{};

TEST_P(BatchServeParity, SessionAndDaemonGafEqualParentGaf)
{
    const ParityWorld world = buildWorld(GetParam());
    ASSERT_FALSE(world.set.reads.pairedEnd);
    const std::vector<map::Read>& reads = world.set.reads.reads;
    ASSERT_FALSE(reads.empty());

    resilience::WorkBudget capped;
    capped.maxExtendSteps = 16;

    // The daemon serves the analog the way mgd does: from a container.
    const std::string container = testPath("parity.mgz3");
    io::saveMgz3(container, world.set.pangenome.graph,
                 world.set.pangenome.gbwt, world.minimizers, world.distance);
    serve::DaemonParams dparams;
    dparams.socketPath = testPath("parity.sock");
    dparams.workers = 2;
    dparams.maxReadsPerRequest = reads.size();
    serve::Daemon daemon(io::loadPangenome(container), container, dparams);
    daemon.start();
    serve::ClientParams cparams;
    cparams.socketPath = dparams.socketPath;
    serve::Client client(cparams);

    giraffe::MapSession session(world.set.pangenome.graph,
                                world.set.pangenome.gbwt, world.minimizers,
                                world.distance, giraffe::SessionParams{});

    // Summed over both budgets, as the daemon's counters sum over both
    // requests.
    std::array<uint64_t, kParityCounters.size()> batch_counters{};
    for (const resilience::WorkBudget& budget :
         { resilience::WorkBudget{}, capped }) {
        SCOPED_TRACE(budget.maxExtendSteps == 0 ? "no budget"
                                                : "step cap 16");
        const BatchGaf batch = mapBatch(world, budget);
        EXPECT_GT(batch.mapped, 0u);
        if (budget.maxExtendSteps != 0) {
            // The cap must actually cut reads, or the dg:Z: comparison
            // below checks nothing.
            EXPECT_GT(batch.degraded, 0u);
            EXPECT_NE(batch.gaf.find("dg:Z:"), std::string::npos);
        } else {
            EXPECT_EQ(batch.degraded, 0u);
        }
        for (size_t c = 0; c < kParityCounters.size(); ++c) {
            batch_counters[c] += batch.counters[c];
        }

        const giraffe::SessionResult direct = session.map(0, reads, budget);
        EXPECT_EQ(direct.gaf, batch.gaf);
        EXPECT_EQ(direct.mappedReads, batch.mapped);
        EXPECT_EQ(direct.degradedReads, batch.degraded);

        serve::Response response;
        const util::Status status =
            client.mapReads("", reads, budget, response);
        ASSERT_TRUE(status.ok()) << status.toString();
        ASSERT_EQ(response.status, serve::ResponseStatus::Ok)
            << response.message;
        EXPECT_EQ(response.gaf, batch.gaf);
        EXPECT_EQ(response.mappedReads, batch.mapped);
        EXPECT_EQ(response.degradedReads, batch.degraded);
    }
    daemon.stop();
    EXPECT_EQ(daemon.report().completed, 2u);

    // Batch and serve report the same numbers for the same reads.
    EXPECT_EQ(batch_counters[0], 2 * reads.size());
    const obs::Snapshot served = daemon.hub().registry().snapshot();
    for (size_t c = 0; c < kParityCounters.size(); ++c) {
        EXPECT_EQ(served.valueOf(kParityCounters[c]), batch_counters[c])
            << kParityCounters[c];
    }
}

INSTANTIATE_TEST_SUITE_P(InputSets, BatchServeParity,
                         ::testing::Values("A-human", "B-yeast"));

} // namespace
} // namespace mg
