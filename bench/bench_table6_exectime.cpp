/**
 * @file
 * Table VI analog: execution-time comparison between the parent's
 * critical-function regions and the proxy, measured on the host across
 * all four input sets (average of three runs each, as in the paper).
 * The paper reports the proxy within 5.7-8.8% of the parent; the claim to
 * preserve is that the proxy closely tracks the parent's critical-region
 * time on every input.
 */
#include <cstdio>
#include <vector>

#include "common.h"
#include "stats/bootstrap.h"
#include "util/csv.h"
#include "util/str.h"

int
main(int argc, char** argv)
{
    mg::util::Flags flags =
        mg::bench::benchFlags("bench_table6_exectime", "0.5");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }
    mg::bench::banner("Table VI analog",
                      "Critical-region time: parent vs proxy, host "
                      "measurement, 3-run averages");

    const int kRuns = 3;
    struct Row
    {
        std::string input;
        double parentSeconds = 0.0;
        double proxySeconds = 0.0;
        mg::stats::ConfidenceInterval diffCi;
    };
    std::vector<Row> rows;

    for (const auto& spec : mg::sim::standardInputSets()) {
        auto world = mg::bench::buildWorld(spec.name, flags.real("scale"));
        mg::giraffe::ParentEmulator parent = world->parent();
        mg::io::SeedCapture capture =
            parent.capturePreprocessing(world->set.reads);
        mg::giraffe::ProxyRunner proxy = world->proxy();

        Row row;
        row.input = spec.name;
        std::vector<double> parent_runs;
        std::vector<double> proxy_runs;
        for (int run = 0; run < kRuns; ++run) {
            // Parent: time only the regions the proxy covers.
            mg::perf::Profiler profiler;
            parent.run(world->set.reads, &profiler);
            parent_runs.push_back(
                profiler.regionSeconds(mg::perf::Stage::ClusterSeeds) +
                profiler.regionSeconds(
                    mg::perf::Stage::ProcessUntilThresholdC));
            // Proxy: whole-run makespan (it *is* the critical region).
            proxy_runs.push_back(proxy.run(capture).wallSeconds);
        }
        for (int run = 0; run < kRuns; ++run) {
            row.parentSeconds += parent_runs[run] / kRuns;
            row.proxySeconds += proxy_runs[run] / kRuns;
        }
        row.diffCi = mg::stats::bootstrapRelativeDifference(proxy_runs,
                                                            parent_runs);
        rows.push_back(row);
    }

    std::printf("%-22s", "");
    for (const Row& row : rows) {
        std::printf(" %10s", row.input.c_str());
    }
    std::printf("\n%-22s", "miniGiraffe (s)");
    for (const Row& row : rows) {
        std::printf(" %10.3f", row.proxySeconds);
    }
    std::printf("\n%-22s", "Giraffe critical (s)");
    for (const Row& row : rows) {
        std::printf(" %10.3f", row.parentSeconds);
    }
    std::printf("\n%-22s", "%% diff over Giraffe");
    for (const Row& row : rows) {
        std::printf(" %10.2f",
                    100.0 * (row.proxySeconds - row.parentSeconds) /
                        row.parentSeconds);
    }
    std::printf("\n%-22s", "95%% CI of %% diff");
    for (const Row& row : rows) {
        std::printf(" %10s",
                    ("[" + mg::util::fixed(100.0 * row.diffCi.lower, 1) +
                     "," + mg::util::fixed(100.0 * row.diffCi.upper, 1) +
                     "]").c_str());
    }
    std::printf("\n\npaper: diffs of 8.77 / 5.75 / 7.02 / 8.22%% "
                "(proxy slightly slower than the parent's regions)\n");

    if (!flags.str("csv").empty()) {
        mg::util::CsvWriter csv(flags.str("csv"),
                                {"input", "proxy_s", "parent_s",
                                 "pct_diff"});
        for (const Row& row : rows) {
            csv.row({row.input, mg::util::fixed(row.proxySeconds, 5),
                     mg::util::fixed(row.parentSeconds, 5),
                     mg::util::fixed(
                         100.0 * (row.proxySeconds - row.parentSeconds) /
                             row.parentSeconds, 2)});
        }
    }
    return 0;
}
