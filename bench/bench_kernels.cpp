/**
 * @file
 * Google-benchmark microbenchmarks of the individual kernels: GBWT record
 * decode, CachedGBWT lookups (hit and miss paths), minimizer extraction,
 * seeding, clustering, gapless extension, the full critical-function
 * pipeline per read, and scheduler dispatch overhead.  These are the
 * building blocks behind every table/figure harness.
 *
 * Before the gbench pass, a match-kernel sweep times the SWAR match run
 * and its scalar oracle over a range of spans and prints bases/cycle
 * (bases/ns where no cycle counter is available) with the paired ratio.
 */
#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "common.h"
#include "map/cluster.h"
#include "map/seeding.h"
#include "machine/host.h"
#include "sched/scheduler.h"

namespace {

/** Lazily built single world shared by all kernels. */
const mg::bench::World&
world()
{
    static std::unique_ptr<mg::bench::World> w =
        mg::bench::buildWorld("B-yeast", 0.2);
    return *w;
}

const mg::io::SeedCapture&
capture()
{
    static mg::io::SeedCapture c =
        world().parent().capturePreprocessing(world().set.reads);
    return c;
}

void
BM_GbwtDecodeRecord(benchmark::State& state)
{
    const auto& gbwt = world().gbwt();
    size_t num_nodes = world().graph().numNodes();
    mg::graph::NodeId id = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            gbwt.decodeRecord(mg::graph::Handle(id, false)));
        id = id % num_nodes + 1;
    }
}
BENCHMARK(BM_GbwtDecodeRecord);

void
BM_CachedGbwtHit(benchmark::State& state)
{
    mg::gbwt::CachedGbwt cache(world().gbwt(), 4096);
    mg::graph::Handle handle(1, false);
    cache.record(handle);
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.record(handle));
    }
}
BENCHMARK(BM_CachedGbwtHit);

void
BM_CachedGbwtMissStream(benchmark::State& state)
{
    // Fresh cache per iteration batch: every access decodes.
    size_t num_nodes = world().graph().numNodes();
    mg::gbwt::CachedGbwt cache(world().gbwt(), 0);
    mg::graph::NodeId id = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.record(mg::graph::Handle(id, false)));
        id = id % num_nodes + 1;
    }
}
BENCHMARK(BM_CachedGbwtMissStream);

void
BM_Minimizers(benchmark::State& state)
{
    const std::string& seq = world().set.pangenome.sequences[0];
    std::string read = seq.substr(0, 150);
    mg::index::MinimizerParams params;
    params.k = 15;
    params.w = 8;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mg::index::minimizersOf(read, params));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Minimizers);

void
BM_FindSeeds(benchmark::State& state)
{
    const auto& reads = world().set.reads.reads;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            mg::map::findSeeds(world().minimizers, reads[i]));
        i = (i + 1) % reads.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FindSeeds);

void
BM_ClusterSeeds(benchmark::State& state)
{
    const auto& entries = capture().entries;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mg::map::clusterSeeds(
            world().graph(), world().distance, entries[i].seeds,
            mg::map::ClusterParams()));
        i = (i + 1) % entries.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterSeeds);

void
BM_MapFromSeeds(benchmark::State& state)
{
    // The proxy's whole critical path, one read at a time.
    mg::map::MapperParams params;
    mg::map::Mapper mapper(world().graph(), world().gbwt(),
                           world().minimizers, world().distance, params);
    auto mapper_state = mapper.makeState();
    const auto& entries = capture().entries;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapper.mapFromSeeds(
            entries[i].read, entries[i].seeds, *mapper_state));
        i = (i + 1) % entries.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MapFromSeeds);

void
BM_SchedulerDispatch(benchmark::State& state)
{
    auto kind = static_cast<mg::sched::SchedulerKind>(state.range(0));
    auto scheduler = mg::sched::makeScheduler(kind);
    for (auto _ : state) {
        scheduler->run(4096, 64, 4, [](size_t, size_t begin, size_t end) {
            benchmark::DoNotOptimize(begin + end);
        });
    }
    state.SetLabel(mg::sched::schedulerName(kind));
}
BENCHMARK(BM_SchedulerDispatch)->Arg(0)->Arg(1)->Arg(2);

// ----------------------------------------------------- match-kernel sweep

/**
 * Time both match-run kernels over a range of spans (all-match inputs:
 * the kernel streams the full span), one paired measurement per span,
 * and print each kernel's bases/tick at its median pass.
 */
void
printMatchKernelTable()
{
    using mg::bench::MatchKernel;
    std::printf("match-kernel sweep (cpu: %s), all-match inputs, median "
                "pass of 51 paired rounds:\n",
                mg::machine::hostCpu().features.c_str());
    for (uint32_t span : {32u, 64u, 128u, 512u, 4096u}) {
        const mg::stats::PairedRatio pair = mg::stats::pairedRatio(
            51,
            [span] {
                return mg::bench::matchRunTicks(MatchKernel::Scalar, span);
            },
            [span] {
                return mg::bench::matchRunTicks(MatchKernel::Swar, span);
            });
        const double bases = mg::bench::matchRunBases(span);
        std::printf("  span=%-5u scalar %6.2f, swar %6.2f bases/%s; "
                    "swar/scalar %s\n",
                    span, bases / pair.baselineCost.pointEstimate,
                    bases / pair.candidateCost.pointEstimate,
                    mg::bench::matchRunTickUnit(),
                    mg::bench::describe(pair).c_str());
    }
}

} // namespace

int
main(int argc, char** argv)
{
    printMatchKernelTable();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
