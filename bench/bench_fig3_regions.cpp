/**
 * @file
 * Figure 3 analog: percentage of runtime per instrumented region for all
 * four input sets (I/O and settings-parsing excluded, as in the paper).
 * The paper's headline observations, reproduced here: the extension
 * region (process_until_threshold_c) is the most expensive everywhere,
 * with cluster_seeds second among the critical functions.
 */
#include <cstdio>
#include <map>
#include <vector>

#include "common.h"
#include "util/csv.h"
#include "util/str.h"

int
main(int argc, char** argv)
{
    mg::util::Flags flags =
        mg::bench::benchFlags("bench_fig3_regions", "0.5");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }
    mg::bench::banner("Figure 3 analog",
                      "Region share of total mapping time per input set "
                      "(parent emulator, averaged across threads)");

    // The extension region nests inside process_until_threshold_c; count
    // the parent region only (as the paper's regions do).
    const mg::perf::Stage stage_order[] = {
        mg::perf::Stage::FindSeeds,
        mg::perf::Stage::ClusterSeeds,
        mg::perf::Stage::ProcessUntilThresholdC,
        mg::perf::Stage::ScoreExtensions,
        mg::perf::Stage::Align,
    };

    std::map<std::string, std::map<std::string, double>> share;
    std::vector<std::string> input_names;

    for (const auto& spec : mg::sim::standardInputSets()) {
        input_names.push_back(spec.name);
        auto world = mg::bench::buildWorld(spec.name, flags.real("scale"));
        mg::giraffe::ParentParams params;
        params.numThreads = 1;
        mg::giraffe::ParentEmulator parent = world->parent(params);
        mg::perf::Profiler profiler;
        parent.run(world->set.reads, &profiler);

        double total = 0.0;
        std::map<std::string, double> seconds;
        for (mg::perf::Stage stage : stage_order) {
            const std::string region = mg::perf::regionName(stage);
            seconds[region] = profiler.regionSeconds(stage);
            total += seconds[region];
        }
        for (mg::perf::Stage stage : stage_order) {
            const std::string region = mg::perf::regionName(stage);
            share[region][spec.name] =
                total > 0.0 ? 100.0 * seconds[region] / total : 0.0;
        }
    }

    std::printf("%-28s", "region \\ input");
    for (const std::string& name : input_names) {
        std::printf(" %10s", name.c_str());
    }
    std::printf("\n");
    for (mg::perf::Stage stage : stage_order) {
        const std::string region = mg::perf::regionName(stage);
        std::printf("%-28s", region.c_str());
        for (const std::string& name : input_names) {
            std::printf(" %9.1f%%", share[region][name]);
        }
        std::printf("\n");
    }

    std::printf("\npaper expectation: process_until_threshold_c dominates "
                "(46-52%% of compute on A/B), cluster_seeds second\n");

    if (!flags.str("csv").empty()) {
        std::vector<std::string> header = {"region"};
        header.insert(header.end(), input_names.begin(),
                      input_names.end());
        mg::util::CsvWriter csv(flags.str("csv"), header);
        for (mg::perf::Stage stage : stage_order) {
            const std::string region = mg::perf::regionName(stage);
            std::vector<std::string> row = {region};
            for (const std::string& name : input_names) {
                row.push_back(mg::util::fixed(share[region][name], 2));
            }
            csv.row(row);
        }
    }
    return 0;
}
