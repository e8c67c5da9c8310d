/**
 * @file
 * Startup microbenchmark for the zero-copy MGZ container.
 *
 * Measures, per input-set analog, the three costs the container exists
 * to change: (1) building the minimizer and distance indexes from the
 * in-memory graph and GBWT vs (2) mmap-binding a container that carries
 * them prebuilt (map + pointer fixup), plus (3) the steady-state mapping
 * throughput on each, which must not regress — the mapped arenas are the
 * same bytes the heap build produces.  Also times the first query after a
 * fresh bind, with the minor page faults it takes (a fresh mapping has no
 * page-table entries yet, even while the file sits in the page cache), and
 * sweeps the parallel index builders (GBWT batches + minimizer shards over
 * the work-stealing scheduler) against the serial build.
 *
 *   bench_startup [--scale=S] [--json=PATH]       record BENCH_mmap.json
 *   bench_startup --guard=PATH                    perf-guard run (CTest)
 *
 * Every quantity is one stats::pairedRatio (baseline and candidate passes
 * alternating by round, median per-round ratio with a bootstrap
 * interval), and the guard fails when a median is below its floor:
 *   - index build / warm container bind >= 10 on A-human;
 *   - mapped/heap mapping throughput >= 0.95, each pass timed on the
 *     mapping thread's CPU clock (a busy host stretches wall time but not
 *     the thread's own CPU time);
 *   - serial / 8-thread index build >= 2 (only asserted when the machine
 *     has >= 8 hardware threads; smaller runners record the number but
 *     skip the assertion).
 */
#include <sys/resource.h>

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
#include "machine/host.h"
#include "obs/json.h"
#include "stats/descriptive.h"
#include "util/timer.h"

namespace mg::bench {
namespace {

std::string
containerPath(const std::string& input_set)
{
    return "/tmp/mg_bench_startup_" + input_set + ".mgz3";
}

/** Rounds of the throughput pair: one mapping pass (~10 ms on A-human
 *  at scale 0.1) per side per round. */
constexpr size_t kThroughputRounds = 201;

/** Rounds of the load and first-query pairs; an index build takes a
 *  quarter second on A-human at scale 0.1. */
constexpr size_t kLoadRounds = 11;

/** Rounds of the build-scaling pair (two full index builds each). */
constexpr size_t kBuildRounds = 5;

/** Reads in the first-query batch. */
constexpr size_t kFirstQueryReads = 32;

/** Everything measured for one input-set analog. */
struct StartupRow
{
    std::string inputSet;
    uint64_t containerBytes = 0;
    uint64_t heapBytes = 0;        // what a bind allocates (0)
    double mmapFirstSeconds = 0.0; // the first bind after writing
    /** Index build (baseline) vs a warm container bind (candidate). */
    stats::PairedRatio load;
    /** Heap-built (baseline) vs mapped (candidate) indexes, one mapping
     *  pass over every read per side. */
    stats::PairedRatio throughput;
    size_t reads = 0;
    /** A query on a bound pangenome (baseline) vs the first query right
     *  after a fresh bind (candidate). */
    stats::PairedRatio firstQuery;
    /** Median minor page faults of the same query on each side, and of
     *  the fresh bind before the first query. */
    double queryMinorFaults = 0.0;
    double firstQueryMinorFaults = 0.0;
    double bindMinorFaults = 0.0;
    /** Serial (baseline) vs parallel (candidate) index build. */
    stats::PairedRatio build;
    unsigned parallelThreads = 1;
};

/** Minor page faults the process has taken so far (nothing else runs
 *  beside the measured bind or query). */
uint64_t
minorFaults()
{
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<uint64_t>(usage.ru_minflt);
}

/** CPU seconds of one single-threaded mapping pass, on this thread's CPU
 *  clock (a one-thread ParentEmulator maps on the calling thread). */
double
passCpuSeconds(const giraffe::ParentEmulator& parent,
               const map::ReadSet& reads)
{
    const uint64_t start = util::threadCpuNanos();
    const giraffe::ParentOutputs outputs = parent.run(reads);
    const uint64_t nanos = util::threadCpuNanos() - start;
    MG_CHECK(outputs.alignments.size() == reads.reads.size(),
             "mapping pass lost reads");
    return static_cast<double>(nanos) * 1e-9;
}

/** Wall seconds to build the indexes a container carries prebuilt
 *  (minimizer + distance) from the in-memory graph, with the builders'
 *  default thread count. */
double
indexBuildSeconds(const graph::VariationGraph& graph)
{
    util::WallTimer timer;
    index::MinimizerIndex minimizers(graph, index::MinimizerParams());
    index::DistanceIndex distance(graph);
    const double seconds = timer.seconds();
    MG_CHECK(minimizers.numKeys() != 0 && distance.numNodes() != 0,
             "index build produced an empty index");
    return seconds;
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

StartupRow
measure(const std::string& input_set, double scale)
{
    StartupRow row;
    row.inputSet = input_set;

    std::unique_ptr<World> world = buildWorld(input_set, scale);
    const graph::VariationGraph& graph = world->graph();
    const map::ReadSet& reads = world->set.reads;
    const std::string path = containerPath(input_set);
    io::saveMgz3(path, graph, world->gbwt(), world->minimizers,
                 world->distance);

    const io::IndexedPangenome mapped = io::loadPangenome(path);
    row.mmapFirstSeconds = mapped.info.loadSeconds;
    row.containerBytes = mapped.info.fileBytes;
    row.heapBytes = mapped.info.heapBytes;

    row.load = stats::pairedRatio(
        kLoadRounds, [&] { return indexBuildSeconds(graph); },
        [&] {
            util::WallTimer timer;
            const io::IndexedPangenome pg = io::loadPangenome(path);
            return timer.seconds();
        });

    // Steady-state mapping throughput, heap-built vs mapped indexes,
    // after one warm-up pass per side (faults the container's pages in,
    // fills allocator caches).
    const giraffe::ParentEmulator heap_parent = world->parent();
    const giraffe::ParentEmulator mapped_parent(
        mapped.graph, mapped.gbwt, mapped.minimizers, mapped.distance,
        giraffe::ParentParams());
    heap_parent.run(reads);
    mapped_parent.run(reads);
    row.reads = reads.reads.size();
    row.throughput = stats::pairedRatio(
        kThroughputRounds,
        [&] { return passCpuSeconds(heap_parent, reads); },
        [&] { return passCpuSeconds(mapped_parent, reads); });

    // The first query a daemon pays right after startup or a hot swap.
    map::ReadSet batch;
    batch.reads.assign(
        reads.reads.begin(),
        reads.reads.begin() + static_cast<std::ptrdiff_t>(std::min(
                                  kFirstQueryReads, reads.reads.size())));
    std::vector<double> warm_faults;
    std::vector<double> fresh_faults;
    std::vector<double> bind_faults;
    const auto query_seconds = [&](const giraffe::ParentEmulator& parent,
                                   std::vector<double>& faults) {
        const uint64_t faults_before = minorFaults();
        util::WallTimer timer;
        parent.run(batch);
        const double seconds = timer.seconds();
        faults.push_back(static_cast<double>(minorFaults() - faults_before));
        return seconds;
    };
    row.firstQuery = stats::pairedRatio(
        kLoadRounds,
        [&] { return query_seconds(mapped_parent, warm_faults); },
        [&] {
            const uint64_t faults_before = minorFaults();
            const io::IndexedPangenome fresh = io::loadPangenome(path);
            bind_faults.push_back(
                static_cast<double>(minorFaults() - faults_before));
            return query_seconds(
                giraffe::ParentEmulator(fresh.graph, fresh.gbwt,
                                        fresh.minimizers, fresh.distance,
                                        giraffe::ParentParams()),
                fresh_faults);
        });
    row.queryMinorFaults = stats::median(warm_faults);
    row.firstQueryMinorFaults = stats::median(fresh_faults);
    row.bindMinorFaults = stats::median(bind_faults);

    const unsigned hardware = std::thread::hardware_concurrency();
    row.parallelThreads =
        std::max(1u, std::min(8u, hardware == 0 ? 1u : hardware));
    row.build = stats::pairedRatio(
        kBuildRounds, [&] { return buildIndexesOnce(graph, 1); },
        [&] { return buildIndexesOnce(graph, row.parallelThreads); });
    return row;
}

void
printRow(const StartupRow& row)
{
    std::printf("%-8s  index build %8.4f s | %7.2f MB container bind "
                "%8.4f s (first %.4f s, %llu heap bytes)  speedup %s\n",
                row.inputSet.c_str(), row.load.baselineCost.pointEstimate,
                row.containerBytes / 1048576.0,
                row.load.candidateCost.pointEstimate, row.mmapFirstSeconds,
                static_cast<unsigned long long>(row.heapBytes),
                describe(row.load).c_str());
    std::printf("          throughput heap %8.0f r/cpu-s, mapped %8.0f "
                "r/cpu-s, mapped/heap %s\n",
                row.reads / row.throughput.baselineCost.pointEstimate,
                row.reads / row.throughput.candidateCost.pointEstimate,
                describe(row.throughput).c_str());
    std::printf("          query %8.4f s (%.0f minor faults), first query "
                "after bind %8.4f s (%.0f minor faults; the bind %.0f)\n",
                row.firstQuery.baselineCost.pointEstimate,
                row.queryMinorFaults,
                row.firstQuery.candidateCost.pointEstimate,
                row.firstQueryMinorFaults, row.bindMinorFaults);
    std::printf("          index build serial %.3f s, %u-thread %.3f s, "
                "speedup %s\n",
                row.build.baselineCost.pointEstimate, row.parallelThreads,
                row.build.candidateCost.pointEstimate,
                describe(row.build).c_str());
}

void
writeJson(const std::string& path, double scale,
          const std::vector<StartupRow>& rows)
{
    const machine::HostCpu& host = machine::hostCpu();
    obs::JsonWriter w;
    w.beginObject();
    w.field("benchmark", "bench_startup");
    w.field("commit", sourceCommit());
    w.field("host", host.arch + " " + host.features);
    w.field("scale", scale);
    w.field("hardware_threads",
            static_cast<uint64_t>(std::thread::hardware_concurrency()));
    w.key("method").beginObject();
    w.field("text", kPairedMethod);
    w.field("load",
            "baseline: minimizer + distance index build from the in-memory "
            "graph (builders' default thread count); candidate: a warm bind "
            "of the container; wall clock");
    w.field("throughput",
            "baseline: heap-built, candidate: mapped indexes; one "
            "single-thread ParentEmulator pass over every read; thread CPU "
            "clock");
    w.field("first_query",
            "baseline: the first reads on a bound pangenome; candidate: the "
            "same reads right after a fresh bind; wall clock, and the "
            "median minor page faults (getrusage ru_minflt) of each side's "
            "query and of the fresh bind");
    w.field("build",
            "baseline: serial, candidate: parallel GBWT + minimizer build; "
            "wall clock");
    w.endObject();
    w.key("results").beginObject();
    for (const StartupRow& row : rows) {
        const auto estimate = [&](const char* key,
                                  const stats::ConfidenceInterval& value,
                                  const stats::PairedRatio& pair) {
            writeEstimate(w, key, value, pair.rounds());
        };
        const auto reads = static_cast<double>(row.reads);
        w.key(row.inputSet).beginObject();
        w.field("container_bytes", row.containerBytes);
        w.field("heap_bytes", row.heapBytes);
        w.field("mmap_first_seconds", row.mmapFirstSeconds);
        estimate("mmap_speedup", row.load.ratio, row.load);
        estimate("index_build_seconds", row.load.baselineCost, row.load);
        estimate("mmap_warm_seconds", row.load.candidateCost, row.load);
        estimate("throughput_ratio", row.throughput.ratio, row.throughput);
        estimate("heap_reads_per_sec",
                 rateOf(reads, row.throughput.baselineCost), row.throughput);
        estimate("mapped_reads_per_sec",
                 rateOf(reads, row.throughput.candidateCost),
                 row.throughput);
        estimate("query_seconds", row.firstQuery.baselineCost,
                 row.firstQuery);
        estimate("first_query_seconds", row.firstQuery.candidateCost,
                 row.firstQuery);
        w.field("query_minor_faults", row.queryMinorFaults);
        w.field("first_query_minor_faults", row.firstQueryMinorFaults);
        w.field("bind_minor_faults", row.bindMinorFaults);
        estimate("build_speedup", row.build.ratio, row.build);
        estimate("serial_build_seconds", row.build.baselineCost, row.build);
        estimate("parallel_build_seconds", row.build.candidateCost,
                 row.build);
        w.field("parallel_build_threads",
                static_cast<uint64_t>(row.parallelThreads));
        w.endObject();
    }
    w.endObject();
    // The floors perf_guard_mmap holds each median to.
    w.key("guard").beginObject();
    w.field("mmap_speedup_floor", 10.0);
    w.field("throughput_ratio_floor", 0.95);
    w.field("build_speedup_floor_at_8_threads", 2.0);
    w.endObject();
    w.endObject();
    io::writeFileText(path, w.str());
    std::printf("wrote %s\n", path.c_str());
}

/** Print the verdict on one median; false when it is below `floor`. */
bool
check(const char* what, const stats::PairedRatio& pair, double floor)
{
    const bool ok = pair.median() >= floor;
    std::printf("%s: %s %s (floor %g)\n", ok ? "ok" : "FAIL", what,
                describe(pair).c_str(), floor);
    return ok;
}

/**
 * Perf guard (ctest perf_guard_mmap): paired ratios on the A-human
 * analog, each held to its floor by its median.
 */
int
guardRun(const std::string& committed_path)
{
    std::printf("perf-guard-mmap: %s record %s\n",
                io::fileExists(committed_path) ? "committed" : "no committed",
                committed_path.c_str());

    StartupRow row = measure("A-human", 0.1);
    printRow(row);
    bool ok = check("index build / container bind", row.load, 10.0);
    ok = check("mapped/heap mapping throughput", row.throughput, 0.95) &&
         ok;
    const unsigned hardware = std::thread::hardware_concurrency();
    if (hardware >= 8) {
        ok = check("serial / parallel index build", row.build, 2.0) && ok;
    } else {
        std::printf("skip: build-scaling floor needs >= 8 hardware "
                    "threads (have %u); measured %s at %u\n",
                    hardware, describe(row.build).c_str(),
                    row.parallelThreads);
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
