/**
 * @file
 * Startup microbenchmark for the zero-copy MGZ container.
 *
 * Measures, per input-set analog, the three costs the container exists
 * to change: (1) building the minimizer and distance indexes from the
 * in-memory graph and GBWT vs (2) mmap-binding a container that carries
 * them prebuilt (map + pointer fixup), plus (3) the steady-state mapping
 * throughput on each, which must not regress — the mapped arenas are the
 * same bytes the heap build produces.  Also sweeps the parallel index
 * builders (GBWT batches + minimizer shards over the work-stealing
 * scheduler) against the serial build.
 *
 *   bench_startup [--scale=S] [--json=PATH]       record BENCH_mmap.json
 *   bench_startup --guard=PATH                    perf-guard run (CTest)
 *
 * The guard re-measures in-process ratios (machine speed cancels):
 *   - mmap load must be >= 10x faster than the index build on A-human;
 *   - mapped-index mapping throughput >= 0.95x heap-index throughput, as
 *     the median of kThroughputRounds interleaved per-round ratios, each
 *     pass timed on the mapping thread's CPU clock (a busy host stretches
 *     wall time but not the thread's own CPU time), reported with a
 *     bootstrap interval;
 *   - parallel index build >= 2x serial at 8 threads, as the median of
 *     kBuildPairs interleaved serial/parallel pairs (only asserted when
 *     the machine actually has >= 8 hardware threads; CI runners with one
 *     core record the numbers but skip the assertion).
 */
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "gbwt/gbwt.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/file.h"
#include "io/mgz.h"
#include "obs/json.h"
#include "stats/bootstrap.h"
#include "stats/descriptive.h"
#include "util/timer.h"

namespace mg::bench {
namespace {

std::string
containerPath(const std::string& input_set)
{
    return "/tmp/mg_bench_startup_" + input_set + ".mgz3";
}

/**
 * Interleaved rounds behind the mapped/heap throughput ratio.  Each
 * round times kPassesPerRound passes per mode, so the median of the
 * per-round ratios is taken over this many paired samples.  A-human's
 * scale-0.1 read set maps in about 20 ms, too short a sample to time
 * alone, hence several passes per sample.
 */
constexpr int kThroughputRounds = 11;
constexpr int kPassesPerRound = 5;

/** Interleaved serial/parallel pairs behind the build speedup. */
constexpr int kBuildPairs = 5;

/** Everything measured for one input-set analog. */
struct StartupRow
{
    std::string inputSet;
    uint64_t containerBytes = 0;
    double indexBuildSeconds = 0.0; // minimizer + distance, from memory
    double mmapFirstSeconds = 0.0;  // first map after writing
    double mmapWarmSeconds = 0.0;   // best of warm re-maps
    double mmapSpeedup = 0.0;       // indexBuildSeconds / mmapWarmSeconds
    /** Reads per CPU-second, median pass of each index. */
    double heapReadsPerSec = 0.0;
    double mappedReadsPerSec = 0.0;
    /** Median per-round mapped/heap ratio and its 95% bootstrap CI. */
    double throughputRatio = 0.0;
    stats::ConfidenceInterval throughputCi;
    /** First mapping query after a fresh bind. */
    double firstQuerySeconds = 0.0;
    /** Median wall seconds of each build over the interleaved pairs. */
    double serialBuildSeconds = 0.0;
    double parallelBuildSeconds = 0.0; // at min(8, hardware) threads
    unsigned parallelThreads = 1;
    /** Median per-pair serial/parallel ratio and its 95% bootstrap CI. */
    double buildSpeedup = 0.0;
    stats::ConfidenceInterval buildCi;
};

/** Median of `ratios` with its 95% percentile bootstrap interval. */
stats::ConfidenceInterval
medianCi(const std::vector<double>& ratios)
{
    return stats::bootstrapCi(ratios, [](const std::vector<double>& xs) {
        return stats::median(xs);
    });
}

/**
 * CPU seconds of kPassesPerRound single-threaded mapping passes, on this
 * thread's CPU clock (a one-thread ParentEmulator maps on the calling
 * thread).
 */
double
passCpuSeconds(const giraffe::ParentEmulator& parent,
               const map::ReadSet& reads)
{
    const uint64_t start = util::threadCpuNanos();
    for (int pass = 0; pass < kPassesPerRound; ++pass) {
        const giraffe::ParentOutputs outputs = parent.run(reads);
        MG_CHECK(outputs.alignments.size() == reads.reads.size(),
                 "mapping pass lost reads");
    }
    const uint64_t nanos = util::threadCpuNanos() - start;
    return static_cast<double>(nanos) * 1e-9 / kPassesPerRound;
}

/**
 * Mapped-vs-heap mapping throughput: the World's heap-built indexes
 * against the same indexes bound out of the container.  After one warmup
 * pass per side (faults the container's pages in, fills allocator
 * caches), each round times both sides, alternating which goes first,
 * and contributes the ratio of the two; drift in machine speed hits both
 * halves of a round alike and cancels out of that round's ratio.
 */
void
measureThroughput(const World& world, const io::IndexedPangenome& mapped,
                  StartupRow& row)
{
    const map::ReadSet& reads = world.set.reads;
    const giraffe::ParentEmulator heap_parent = world.parent();
    const giraffe::ParentEmulator mapped_parent(
        mapped.graph, mapped.gbwt, mapped.minimizers, mapped.distance,
        giraffe::ParentParams());
    heap_parent.run(reads);
    mapped_parent.run(reads);
    std::vector<double> heap_cpu;
    std::vector<double> mapped_cpu;
    std::vector<double> ratios;
    for (int round = 0; round < kThroughputRounds; ++round) {
        double heap_seconds = 0.0;
        double mapped_seconds = 0.0;
        if (round % 2 == 0) {
            heap_seconds = passCpuSeconds(heap_parent, reads);
            mapped_seconds = passCpuSeconds(mapped_parent, reads);
        } else {
            mapped_seconds = passCpuSeconds(mapped_parent, reads);
            heap_seconds = passCpuSeconds(heap_parent, reads);
        }
        heap_cpu.push_back(heap_seconds);
        mapped_cpu.push_back(mapped_seconds);
        ratios.push_back(heap_seconds / mapped_seconds);
    }
    const auto n = static_cast<double>(reads.reads.size());
    row.heapReadsPerSec = n / stats::median(heap_cpu);
    row.mappedReadsPerSec = n / stats::median(mapped_cpu);
    row.throughputCi = medianCi(ratios);
    row.throughputRatio = row.throughputCi.pointEstimate;
}

/**
 * Bind the container fresh and time ONE small mapping batch — the
 * first-query latency a daemon pays right after startup or a hot swap.
 * Best of 3 binds (each bind gets exactly one first query).
 */
double
firstQuerySeconds(const std::string& path, const map::ReadSet& reads)
{
    map::ReadSet batch;
    const size_t count = std::min<size_t>(32, reads.reads.size());
    batch.reads.assign(reads.reads.begin(),
                       reads.reads.begin() +
                           static_cast<std::ptrdiff_t>(count));
    double best = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
        io::IndexedPangenome pg = io::loadPangenome(path);
        giraffe::ParentEmulator parent(pg.graph, pg.gbwt, pg.minimizers,
                                       pg.distance,
                                       giraffe::ParentParams());
        util::WallTimer timer;
        parent.run(batch);
        best = std::min(best, timer.seconds());
    }
    return best;
}

/**
 * Wall seconds to build the indexes a container carries prebuilt
 * (minimizer + distance) from the in-memory graph, with the builders'
 * default thread count.  Best of 2.
 */
double
indexBuildSeconds(const graph::VariationGraph& graph)
{
    double best = 1e9;
    for (int rep = 0; rep < 2; ++rep) {
        util::WallTimer timer;
        index::MinimizerIndex minimizers(graph, index::MinimizerParams());
        index::DistanceIndex distance(graph);
        best = std::min(best, timer.seconds());
        MG_CHECK(minimizers.numKeys() != 0 && distance.numNodes() != 0,
                 "index build produced an empty index");
    }
    return best;
}

/** Wall seconds of one GBWT + minimizer build at `threads` threads. */
double
buildIndexesOnce(const graph::VariationGraph& graph, unsigned threads)
{
    util::WallTimer timer;
    gbwt::GbwtBuilder builder;
    for (const graph::PathEntry& path : graph.paths()) {
        builder.addPath(path.steps);
    }
    gbwt::Gbwt gbwt = std::move(builder).build(threads);
    index::MinimizerParams mparams;
    mparams.buildThreads = threads;
    index::MinimizerIndex minimizers(graph, mparams);
    double seconds = timer.seconds();
    // Keep the results observable so the builds cannot be elided.
    MG_CHECK(gbwt.numPaths() != 0 && minimizers.numKeys() != 0,
             "index build produced an empty index");
    return seconds;
}

/**
 * Parallel vs serial index construction: kBuildPairs pairs, alternating
 * which build goes first, each contributing its serial/parallel ratio.
 */
void
measureBuildScaling(const graph::VariationGraph& graph, StartupRow& row)
{
    unsigned hardware = std::thread::hardware_concurrency();
    row.parallelThreads =
        std::max(1u, std::min(8u, hardware == 0 ? 1u : hardware));
    std::vector<double> serial;
    std::vector<double> parallel;
    std::vector<double> ratios;
    for (int pair = 0; pair < kBuildPairs; ++pair) {
        double serial_seconds = 0.0;
        double parallel_seconds = 0.0;
        if (pair % 2 == 0) {
            serial_seconds = buildIndexesOnce(graph, 1);
            parallel_seconds = buildIndexesOnce(graph, row.parallelThreads);
        } else {
            parallel_seconds = buildIndexesOnce(graph, row.parallelThreads);
            serial_seconds = buildIndexesOnce(graph, 1);
        }
        serial.push_back(serial_seconds);
        parallel.push_back(parallel_seconds);
        ratios.push_back(serial_seconds / parallel_seconds);
    }
    row.serialBuildSeconds = stats::median(serial);
    row.parallelBuildSeconds = stats::median(parallel);
    row.buildCi = medianCi(ratios);
    row.buildSpeedup = row.buildCi.pointEstimate;
}

StartupRow
measure(const std::string& input_set, double scale)
{
    StartupRow row;
    row.inputSet = input_set;

    std::unique_ptr<World> world = buildWorld(input_set, scale);
    const std::string path = containerPath(input_set);
    io::saveMgz3(path, world->graph(), world->gbwt(), world->minimizers,
                 world->distance);
    row.containerBytes = io::readFileBytes(path).size();

    // Baseline: build the indexes the container carries prebuilt.
    row.indexBuildSeconds = indexBuildSeconds(world->graph());

    // Map: first bind, then best of 5 warm binds.
    {
        util::WallTimer timer;
        io::IndexedPangenome pg = io::loadPangenome(path);
        row.mmapFirstSeconds = timer.seconds();
    }
    row.mmapWarmSeconds = 1e9;
    for (int rep = 0; rep < 5; ++rep) {
        util::WallTimer timer;
        io::IndexedPangenome pg = io::loadPangenome(path);
        row.mmapWarmSeconds = std::min(row.mmapWarmSeconds,
                                       timer.seconds());
    }
    row.mmapSpeedup = row.indexBuildSeconds / row.mmapWarmSeconds;

    // Steady-state mapping throughput, heap-built vs mapped indexes.
    measureThroughput(*world, io::loadPangenome(path), row);

    // First-query latency after a fresh bind.
    row.firstQuerySeconds = firstQuerySeconds(path, world->set.reads);

    measureBuildScaling(world->graph(), row);
    return row;
}

void
printRow(const StartupRow& row)
{
    std::printf("%-8s  index build %8.4f s | %7.2f MB container map "
                "%8.4f s (first %.4f s)  speedup %6.1fx\n",
                row.inputSet.c_str(), row.indexBuildSeconds,
                row.containerBytes / 1048576.0, row.mmapWarmSeconds,
                row.mmapFirstSeconds, row.mmapSpeedup);
    std::printf("          throughput heap %8.0f r/cpu-s, mapped %8.0f "
                "r/cpu-s (median ratio %.3f, 95%% CI %.3f-%.3f over %d "
                "rounds)\n",
                row.heapReadsPerSec, row.mappedReadsPerSec,
                row.throughputRatio, row.throughputCi.lower,
                row.throughputCi.upper, kThroughputRounds);
    std::printf("          first query after bind %8.4f s\n",
                row.firstQuerySeconds);
    std::printf("          index build serial %.3f s, %u-thread %.3f s "
                "(median speedup %.2fx, 95%% CI %.2f-%.2f over %d "
                "pairs)\n",
                row.serialBuildSeconds, row.parallelThreads,
                row.parallelBuildSeconds, row.buildSpeedup,
                row.buildCi.lower, row.buildCi.upper, kBuildPairs);
}

void
writeJson(const std::string& path, double scale,
          const std::vector<StartupRow>& rows)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("benchmark", "bench_startup");
    w.field("commit", sourceCommit());
    w.field("scale", scale);
    w.field("hardware_threads",
            static_cast<uint64_t>(std::thread::hardware_concurrency()));
    w.field("throughput_method",
            "single-thread ParentEmulator passes timed on the thread CPU "
            "clock; median of per-round heap/mapped CPU-time ratios over "
            "interleaved rounds (order alternating), 95% percentile "
            "bootstrap CI of that median (2000 resamples)");
    w.field("throughput_rounds", static_cast<uint64_t>(kThroughputRounds));
    w.field("throughput_passes_per_round",
            static_cast<uint64_t>(kPassesPerRound));
    w.field("load_baseline",
            "minimizer + distance index build from the in-memory graph "
            "(builders' default thread count), best of 2 wall-clock runs");
    w.field("build_method",
            "GBWT + minimizer build, wall clock; median of per-pair "
            "serial/parallel ratios over interleaved pairs (order "
            "alternating), 95% percentile bootstrap CI of that median");
    w.field("build_pairs", static_cast<uint64_t>(kBuildPairs));
    w.key("results").beginObject();
    for (const StartupRow& row : rows) {
        w.key(row.inputSet).beginObject();
        w.field("container_bytes", row.containerBytes);
        w.field("index_build_seconds", row.indexBuildSeconds);
        w.field("mmap_first_seconds", row.mmapFirstSeconds);
        w.field("mmap_warm_seconds", row.mmapWarmSeconds);
        w.field("mmap_speedup", row.mmapSpeedup);
        w.field("heap_reads_per_sec", row.heapReadsPerSec);
        w.field("mapped_reads_per_sec", row.mappedReadsPerSec);
        w.field("throughput_ratio", row.throughputRatio);
        w.field("throughput_ratio_ci_low", row.throughputCi.lower);
        w.field("throughput_ratio_ci_high", row.throughputCi.upper);
        w.field("first_query_seconds", row.firstQuerySeconds);
        w.field("serial_build_seconds", row.serialBuildSeconds);
        w.field("parallel_build_seconds", row.parallelBuildSeconds);
        w.field("parallel_build_threads",
                static_cast<uint64_t>(row.parallelThreads));
        w.field("build_speedup", row.buildSpeedup);
        w.field("build_speedup_ci_low", row.buildCi.lower);
        w.field("build_speedup_ci_high", row.buildCi.upper);
        w.endObject();
    }
    w.endObject();
    // The floors perf_guard_mmap re-measures.
    w.key("guard").beginObject();
    w.field("mmap_speedup_floor", 10.0);
    w.field("throughput_ratio_floor", 0.95);
    w.field("build_speedup_floor_at_8_threads", 2.0);
    w.endObject();
    w.endObject();
    io::writeFileText(path, w.str());
    std::printf("wrote %s\n", path.c_str());
}

/**
 * Perf guard (ctest perf_guard_mmap): in-process ratios on the A-human
 * analog.  Machine speed cancels out of every checked quantity.
 */
int
guardRun(const std::string& committed_path)
{
    if (io::fileExists(committed_path)) {
        std::printf("perf-guard-mmap: committed record %s\n",
                    committed_path.c_str());
    } else {
        std::printf("perf-guard-mmap: no committed record (%s)\n",
                    committed_path.c_str());
    }

    StartupRow row = measure("A-human", 0.1);
    printRow(row);
    bool ok = true;

    if (row.mmapSpeedup < 10.0) {
        std::printf("FAIL: mmap load %.1fx faster than the index build "
                    "(floor 10x)\n",
                    row.mmapSpeedup);
        ok = false;
    } else {
        std::printf("ok: mmap load %.1fx faster than the index build "
                    "(floor 10x)\n",
                    row.mmapSpeedup);
    }

    if (row.throughputRatio < 0.95) {
        std::printf("FAIL: mapped-index throughput median ratio %.3f "
                    "(95%% CI %.3f-%.3f; floor 0.95)\n",
                    row.throughputRatio, row.throughputCi.lower,
                    row.throughputCi.upper);
        ok = false;
    } else {
        std::printf("ok: mapped/heap throughput median ratio %.3f "
                    "(95%% CI %.3f-%.3f; floor 0.95)\n",
                    row.throughputRatio, row.throughputCi.lower,
                    row.throughputCi.upper);
    }

    unsigned hardware = std::thread::hardware_concurrency();
    if (hardware >= 8) {
        if (row.buildSpeedup < 2.0) {
            std::printf("FAIL: parallel index build %.2fx at %u threads "
                        "(floor 2x)\n",
                        row.buildSpeedup, row.parallelThreads);
            ok = false;
        } else {
            std::printf("ok: parallel index build %.2fx at %u threads "
                        "(floor 2x)\n",
                        row.buildSpeedup, row.parallelThreads);
        }
    } else {
        std::printf("skip: build-scaling floor needs >= 8 hardware "
                    "threads (have %u); measured %.2fx at %u\n",
                    hardware, row.buildSpeedup, row.parallelThreads);
    }
    return ok ? 0 : 1;
}

int
run(int argc, char** argv)
{
    util::Flags flags = benchFlags("bench_startup", "0.1");
    flags.define("json", "BENCH_mmap.json",
                 "output path for the JSON record");
    flags.define("guard", "",
                 "perf-guard mode: committed BENCH_mmap.json path");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }

    std::string guard = flags.str("guard");
    if (!guard.empty()) {
        return guardRun(guard);
    }

    double scale = flags.real("scale");
    banner("startup", "index build vs container mmap load, build scaling");
    std::vector<StartupRow> rows;
    for (const char* input_set : { "A-human", "B-yeast" }) {
        rows.push_back(measure(input_set, scale));
        printRow(rows.back());
    }
    writeJson(flags.str("json"), scale, rows);
    return 0;
}

} // namespace
} // namespace mg::bench

int
main(int argc, char** argv)
{
    return mg::bench::run(argc, argv);
}
