/**
 * @file
 * Startup microbenchmark for the MGZ v3 zero-copy substrate.
 *
 * Measures, per input-set analog, the three costs the substrate exists to
 * change: (1) heap-parsing a v2 container (decode + GBWT rebuild +
 * minimizer/distance construction) vs (2) mmap-binding a v3 container
 * (map + pointer fixup), plus (3) the steady-state mapping throughput on
 * each, which must not regress — the mapped arenas are the same bytes the
 * heap path would have built.  Also sweeps the parallel index builders
 * (GBWT batches + minimizer shards over the work-stealing scheduler)
 * against the serial build.
 *
 *   bench_startup [--scale=S] [--json=PATH]       record BENCH_mmap.json
 *   bench_startup --guard=PATH                    perf-guard run (CTest)
 *
 * The guard re-measures in-process ratios (machine speed cancels):
 *   - v3 mmap load must be >= 10x faster than the v2 parse on A-human;
 *   - mapped-mode mapping throughput >= 0.95x parsed-mode, as the median
 *     of kThroughputRounds interleaved per-round ratios, each pass timed
 *     on the mapping thread's CPU clock (a busy host stretches wall time
 *     but not the thread's own CPU time), reported with a bootstrap
 *     interval;
 *   - parallel index build >= 2x serial at 8 threads (only asserted when
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
containerPath(const std::string& input_set, const char* ext)
{
    return "/tmp/mg_bench_startup_" + input_set + ext;
}

/**
 * Interleaved rounds behind the mapped/parsed throughput ratio.  Each
 * round times kPassesPerRound passes per mode, so the median of the
 * per-round ratios is taken over this many paired samples.  A-human's
 * scale-0.1 read set maps in about 20 ms, too short a sample to time
 * alone, hence several passes per sample.
 */
constexpr int kThroughputRounds = 11;
constexpr int kPassesPerRound = 5;

/** Everything measured for one input-set analog. */
struct StartupRow
{
    std::string inputSet;
    uint64_t v2Bytes = 0;
    uint64_t v3Bytes = 0;
    double parseSeconds = 0.0;     // v2: decode + index builds
    double mmapFirstSeconds = 0.0; // v3: first map after writing
    double mmapWarmSeconds = 0.0;  // v3: best of warm re-maps
    double mmapSpeedup = 0.0;      // parseSeconds / mmapWarmSeconds
    /** Reads per CPU-second, median pass of each mode. */
    double parsedReadsPerSec = 0.0;
    double mappedReadsPerSec = 0.0;
    /** Median per-round mapped/parsed ratio and its 95% bootstrap CI. */
    double throughputRatio = 0.0;
    stats::ConfidenceInterval throughputCi;
    /** First mapping query after a fresh v3 bind. */
    double firstQuerySeconds = 0.0;
    double serialBuildSeconds = 0.0;
    double parallelBuildSeconds = 0.0; // at min(8, hardware) threads
    unsigned parallelThreads = 1;
    double buildSpeedup = 0.0;
};

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
 * Mapped-vs-parsed mapping throughput.  After one warmup pass per mode
 * (faults v3 pages in, fills allocator caches), each round times both
 * modes, alternating which goes first, and contributes the ratio of the
 * two; drift in machine speed hits both halves of a round alike and
 * cancels out of that round's ratio.
 */
void
measureThroughput(const io::IndexedPangenome& parsed,
                  const io::IndexedPangenome& mapped,
                  const map::ReadSet& reads, StartupRow& row)
{
    const giraffe::ParentEmulator parsed_parent(
        parsed.graph, parsed.gbwt, parsed.minimizers, parsed.distance,
        giraffe::ParentParams());
    const giraffe::ParentEmulator mapped_parent(
        mapped.graph, mapped.gbwt, mapped.minimizers, mapped.distance,
        giraffe::ParentParams());
    parsed_parent.run(reads);
    mapped_parent.run(reads);
    std::vector<double> parsed_cpu;
    std::vector<double> mapped_cpu;
    std::vector<double> ratios;
    for (int round = 0; round < kThroughputRounds; ++round) {
        double parsed_seconds = 0.0;
        double mapped_seconds = 0.0;
        if (round % 2 == 0) {
            parsed_seconds = passCpuSeconds(parsed_parent, reads);
            mapped_seconds = passCpuSeconds(mapped_parent, reads);
        } else {
            mapped_seconds = passCpuSeconds(mapped_parent, reads);
            parsed_seconds = passCpuSeconds(parsed_parent, reads);
        }
        parsed_cpu.push_back(parsed_seconds);
        mapped_cpu.push_back(mapped_seconds);
        ratios.push_back(parsed_seconds / mapped_seconds);
    }
    const auto n = static_cast<double>(reads.reads.size());
    row.parsedReadsPerSec = n / stats::median(parsed_cpu);
    row.mappedReadsPerSec = n / stats::median(mapped_cpu);
    row.throughputCi = stats::bootstrapCi(
        ratios, [](const std::vector<double>& xs) {
            return stats::median(xs);
        });
    row.throughputRatio = row.throughputCi.pointEstimate;
}

/**
 * Bind the v3 container fresh and time ONE small mapping batch — the
 * first-query latency a daemon pays right after startup or a hot swap.
 * Best of 3 binds (each bind gets exactly one first query).
 */
double
firstQuerySeconds(const std::string& v3, const map::ReadSet& reads)
{
    map::ReadSet batch;
    const size_t count = std::min<size_t>(32, reads.reads.size());
    batch.reads.assign(reads.reads.begin(),
                       reads.reads.begin() +
                           static_cast<std::ptrdiff_t>(count));
    double best = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
        io::IndexedPangenome pg = io::loadPangenome(v3);
        giraffe::ParentEmulator parent(pg.graph, pg.gbwt, pg.minimizers,
                                       pg.distance,
                                       giraffe::ParentParams());
        util::WallTimer timer;
        parent.run(batch);
        best = std::min(best, timer.seconds());
    }
    return best;
}

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
    mparams.k = 15;
    mparams.w = 8;
    mparams.buildThreads = threads;
    index::MinimizerIndex minimizers(graph, mparams);
    double seconds = timer.seconds();
    // Keep the results observable so the builds cannot be elided.
    if (gbwt.numPaths() == 0 && minimizers.numKeys() == 0) {
        std::printf("(empty index)\n");
    }
    return seconds;
}

StartupRow
measure(const std::string& input_set, double scale)
{
    StartupRow row;
    row.inputSet = input_set;

    std::unique_ptr<World> world = buildWorld(input_set, scale);
    const std::string v2 = containerPath(input_set, ".mgz");
    const std::string v3 = containerPath(input_set, ".mgz3");
    io::saveMgz(v2, world->graph(), world->gbwt());
    io::saveMgz3(v3, world->graph(), world->gbwt(), world->minimizers,
                 world->distance);
    row.v2Bytes = io::readFileBytes(v2).size();
    row.v3Bytes = io::readFileBytes(v3).size();

    // v2 parse: best of 2 (both page-cache warm; the parse dominates).
    row.parseSeconds = 1e9;
    for (int rep = 0; rep < 2; ++rep) {
        util::WallTimer timer;
        io::IndexedPangenome pg = io::loadPangenome(v2);
        row.parseSeconds = std::min(row.parseSeconds, timer.seconds());
    }

    // v3 map: first bind, then best of 5 warm binds.
    {
        util::WallTimer timer;
        io::IndexedPangenome pg = io::loadPangenome(v3);
        row.mmapFirstSeconds = timer.seconds();
    }
    row.mmapWarmSeconds = 1e9;
    for (int rep = 0; rep < 5; ++rep) {
        util::WallTimer timer;
        io::IndexedPangenome pg = io::loadPangenome(v3);
        row.mmapWarmSeconds = std::min(row.mmapWarmSeconds,
                                       timer.seconds());
    }
    row.mmapSpeedup = row.parseSeconds / row.mmapWarmSeconds;

    // Steady-state mapping throughput, both load modes.
    {
        const io::IndexedPangenome parsed = io::loadPangenome(v2);
        const io::IndexedPangenome mapped = io::loadPangenome(v3);
        measureThroughput(parsed, mapped, world->set.reads, row);
    }

    // First-query latency after a fresh bind.
    row.firstQuerySeconds = firstQuerySeconds(v3, world->set.reads);

    // Parallel index construction vs serial.
    unsigned hardware = std::thread::hardware_concurrency();
    row.parallelThreads =
        std::max(1u, std::min(8u, hardware == 0 ? 1u : hardware));
    row.serialBuildSeconds = buildIndexesOnce(world->graph(), 1);
    row.parallelBuildSeconds =
        buildIndexesOnce(world->graph(), row.parallelThreads);
    row.buildSpeedup = row.serialBuildSeconds / row.parallelBuildSeconds;
    return row;
}

void
printRow(const StartupRow& row)
{
    std::printf("%-8s  v2 %7.2f MB parse %8.4f s | v3 %7.2f MB map "
                "%8.4f s (first %.4f s)  speedup %6.1fx\n",
                row.inputSet.c_str(), row.v2Bytes / 1048576.0,
                row.parseSeconds, row.v3Bytes / 1048576.0,
                row.mmapWarmSeconds, row.mmapFirstSeconds,
                row.mmapSpeedup);
    std::printf("          throughput parsed %8.0f r/cpu-s, mapped %8.0f "
                "r/cpu-s (median ratio %.3f, 95%% CI %.3f-%.3f over %d "
                "rounds)\n",
                row.parsedReadsPerSec, row.mappedReadsPerSec,
                row.throughputRatio, row.throughputCi.lower,
                row.throughputCi.upper, kThroughputRounds);
    std::printf("          first query after bind %8.4f s\n",
                row.firstQuerySeconds);
    std::printf("          index build serial %.3f s, %u-thread %.3f s "
                "(speedup %.2fx)\n",
                row.serialBuildSeconds, row.parallelThreads,
                row.parallelBuildSeconds, row.buildSpeedup);
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
            "clock; median of per-round parsed/mapped CPU-time ratios over "
            "interleaved rounds (order alternating), 95% percentile "
            "bootstrap CI of that median (2000 resamples)");
    w.field("throughput_rounds", static_cast<uint64_t>(kThroughputRounds));
    w.field("throughput_passes_per_round",
            static_cast<uint64_t>(kPassesPerRound));
    w.key("results").beginObject();
    for (const StartupRow& row : rows) {
        w.key(row.inputSet).beginObject();
        w.field("v2_bytes", row.v2Bytes);
        w.field("v3_bytes", row.v3Bytes);
        w.field("parse_seconds", row.parseSeconds);
        w.field("mmap_first_seconds", row.mmapFirstSeconds);
        w.field("mmap_warm_seconds", row.mmapWarmSeconds);
        w.field("mmap_speedup", row.mmapSpeedup);
        w.field("parsed_reads_per_sec", row.parsedReadsPerSec);
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
        std::printf("FAIL: v3 mmap load %.1fx faster than v2 parse "
                    "(floor 10x)\n",
                    row.mmapSpeedup);
        ok = false;
    } else {
        std::printf("ok: mmap load %.1fx faster than parse "
                    "(floor 10x)\n",
                    row.mmapSpeedup);
    }

    if (row.throughputRatio < 0.95) {
        std::printf("FAIL: mapped-mode throughput median ratio %.3f "
                    "(95%% CI %.3f-%.3f; floor 0.95)\n",
                    row.throughputRatio, row.throughputCi.lower,
                    row.throughputCi.upper);
        ok = false;
    } else {
        std::printf("ok: mapped/parsed throughput median ratio %.3f "
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
    banner("startup", "v2 parse vs v3 mmap load, build scaling");
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
