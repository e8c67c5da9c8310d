/**
 * @file
 * e2ebench: the harness binary run.py drives.
 *
 *   e2ebench gen --workload W --seed N --dir D [--reads N]
 *       Build W's container(s) (once per D) and the read set of seed N.
 *   e2ebench run --workload W --seed N --dir D --seconds S --trace 0|1
 *       Measure.  Prints a provenance line, then one JSON line with
 *       correct / attempted / failed / metrics: the end-to-end metrics
 *       with --trace 0, the per-layer metrics with --trace 1, as bare
 *       name -> value pairs (run.py adds the units from BENCHMARK.json
 *       and a 0 for each layer the workload lacks).  Exits 1 when an
 *       output check failed, 2 on an error (no result line).
 *   e2ebench score --reads R.tsv --gaf G.gaf
 *       Score a GAF against a read set's ground truth (the correct_frac
 *       rule); run writes its reference GAF beside the read set.
 */
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "common.h"
#include "drivers.h"
#include "gen.h"
#include "machine/host.h"

namespace {

/** --key value pairs after the mode word. */
class Args
{
  public:
    Args(int argc, char** argv)
    {
        for (int i = 2; i < argc; ++i) {
            if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
                throw std::runtime_error(std::string("bad argument: ") +
                                         argv[i]);
            }
            values_.emplace_back(argv[i] + 2, argv[i + 1]);
            ++i;
        }
    }

    std::string
    get(const std::string& key, const char* fallback = nullptr) const
    {
        for (const auto& [k, v] : values_) {
            if (k == key) {
                return v;
            }
        }
        if (fallback == nullptr) {
            throw std::runtime_error("missing --" + key);
        }
        return fallback;
    }

  private:
    std::vector<std::pair<std::string, std::string>> values_;
};

/** The metrics a run set, by name; run.py adds the units. */
std::string
metricsJson(const e2e::Metrics& metrics)
{
    e2e::JsonObject out;
    for (const auto& [name, value] : metrics) {
        out.num(name, value);
    }
    return out.dump();
}

int
run(const Args& args)
{
    const e2e::Workload& workload = e2e::workload(args.get("workload"));
    e2e::RunOptions options;
    options.dir = args.get("dir");
    options.seed = std::stoull(args.get("seed"));
    options.seconds = std::stod(args.get("seconds"));
    options.trace = args.get("trace") == "1";
    if (options.seconds <= 0.0) {
        throw std::runtime_error("--seconds must be positive");
    }

    const uint64_t steal_before = e2e::stealTicks();
    const e2e::RunResult result = workload.serve()
                                      ? e2e::runServe(workload, options)
                                      : e2e::runBatch(workload, options);
    const uint64_t steal_after = e2e::stealTicks();

    e2e::JsonObject provenance = result.provenance;
    provenance.str("workload", workload.name)
        .str("analog", workload.analog)
        .integer("seed", options.seed)
        .num("timed_seconds", options.seconds)
        .integer("trace", options.trace ? 1 : 0)
        .raw("cpu", mg::machine::hostCpuJson())
        .integer("nproc", static_cast<uint64_t>(::sysconf(_SC_NPROCESSORS_ONLN)))
        .integer("steal_ticks_delta", steal_after - steal_before);
    std::printf("{\"provenance\": %s}\n", provenance.dump().c_str());

    const std::string metrics = metricsJson(result.metrics);
    for (const std::string& problem : result.problems) {
        std::fprintf(stderr, "e2ebench: CHECK FAILED: %s\n", problem.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metrics.c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
try {
    const std::string mode = argc > 1 ? argv[1] : "";
    const Args args(argc, argv);
    if (mode == "gen") {
        e2e::generate(args.get("dir"), e2e::workload(args.get("workload")),
                      std::stoull(args.get("seed")),
                      std::stoul(args.get("reads", "0")));
        return 0;
    }
    if (mode == "run") {
        return run(args);
    }
    if (mode == "score") {
        const e2e::TruthReads input = e2e::loadTruthReads(args.get("reads"));
        const e2e::Accuracy accuracy = e2e::scoreGaf(
            e2e::splitLines(e2e::readText(args.get("gaf"))), input);
        if (!accuracy.wellFormed) {
            throw std::runtime_error(accuracy.problem);
        }
        std::printf("{\"reads\": %llu, \"correct\": %llu, \"mapped\": %llu}\n",
                    static_cast<unsigned long long>(accuracy.reads),
                    static_cast<unsigned long long>(accuracy.correct),
                    static_cast<unsigned long long>(accuracy.mapped));
        return 0;
    }
    std::fprintf(stderr, "usage: e2ebench gen|run|score --key value ...\n");
    return 2;
} catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
}
