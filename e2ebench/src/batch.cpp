/**
 * @file
 * batch-hprc: giraffe::ParentEmulator on the VgBatch scheduler with
 * pairing and mate rescue, over a paired-end read set.
 *
 * Untraced run: set-up (load + emulator + first query + a fixed-size
 * warm-up pass) repeated kSetups times, then back-to-back passes over
 * the whole read set for the requested seconds.  Every pass must return
 * one alignment per read and quarantine nothing; the first timed pass is
 * the reference (GAF, correct_frac) that every later pass must equal
 * alignment for alignment.
 *
 * Traced run: 3-thread and 1-thread untraced passes (scheduler speedup,
 * the 1-thread GAF), then outside-in traced passes whose GAF must be
 * byte-identical to the 1-thread emulator's.
 */
#include <memory>

#include "drivers.h"
#include "gen.h"
#include "giraffe/parent.h"
#include "io/gaf.h"
#include "io/mgz.h"
#include "layers.h"

namespace e2e {

namespace {

bool
sameAlignment(const mg::giraffe::Alignment& a,
              const mg::giraffe::Alignment& b)
{
    return a.readName == b.readName && a.mapped == b.mapped &&
           a.onReverseRead == b.onReverseRead && a.path == b.path &&
           a.startOffset == b.startOffset && a.readBegin == b.readBegin &&
           a.readEnd == b.readEnd && a.mismatches == b.mismatches &&
           a.score == b.score && a.mappingQuality == b.mappingQuality &&
           a.degraded == b.degraded;
}

mg::giraffe::ParentParams
parentParams(size_t threads)
{
    mg::giraffe::ParentParams params;
    params.numThreads = threads;
    params.scheduler = mg::sched::SchedulerKind::VgBatch;
    params.mateRescue = true;
    return params;
}

/** A loaded index with an emulator bound to it. */
struct BatchSetup
{
    std::unique_ptr<mg::io::IndexedPangenome> index;
    std::unique_ptr<mg::giraffe::ParentEmulator> parent;
    mg::giraffe::ParentOutputs warmup;
    double seconds = 0.0;
    double loadMs = 0.0;
    double firstQueryMs = 0.0;
};

BatchSetup
setUp(const std::string& container, const Workload& workload,
      const mg::map::ReadSet& warm)
{
    BatchSetup setup;
    const double start = nowSeconds();
    setup.index = std::make_unique<mg::io::IndexedPangenome>(
        mg::io::loadPangenome(container));
    setup.loadMs = (nowSeconds() - start) * 1e3;
    setup.parent = std::make_unique<mg::giraffe::ParentEmulator>(
        setup.index->graph, setup.index->gbwt, setup.index->minimizers,
        setup.index->distance, parentParams(workload.threads));
    {
        // First query: one read through a fresh mapper state, paying the
        // index page-ins the warm-up pass would otherwise hide.
        const double q = nowSeconds();
        const mg::map::Mapper& mapper = setup.parent->mapper();
        auto state = mapper.makeState();
        mapper.mapRead(warm.reads.front(), *state);
        setup.firstQueryMs = (nowSeconds() - q) * 1e3;
    }
    setup.warmup = setup.parent->run(warm);
    setup.seconds = nowSeconds() - start;
    return setup;
}

/** The first `count` reads (whole pairs) of a read set. */
mg::map::ReadSet
prefix(const mg::map::ReadSet& reads, size_t count)
{
    mg::map::ReadSet out;
    out.pairedEnd = reads.pairedEnd;
    count = std::min(count, reads.size()) & ~size_t{ 1 };
    out.reads.assign(reads.reads.begin(),
                     reads.reads.begin() + static_cast<long>(count));
    return out;
}

} // namespace

RunResult
runBatch(const Workload& workload, const RunOptions& options)
{
    RunResult result;
    const TruthReads input =
        loadTruthReads(readsPath(options.dir, workload, options.seed));
    const mg::map::ReadSet& reads = input.reads;
    const mg::map::ReadSet warm = prefix(reads, workload.warmupReads);
    const std::string container = containerPath(options.dir, workload, 0);

    // Set-up, several times; the last one stays up for measuring.
    BatchSetup setup;
    std::vector<double> setup_s, load_ms, first_ms;
    for (size_t s = 0; s < kSetups; ++s) {
        setup = BatchSetup{};
        setup = setUp(container, workload, warm);
        setup_s.push_back(setup.seconds);
        load_ms.push_back(setup.loadMs);
        first_ms.push_back(setup.firstQueryMs);
        result.check(setup.warmup.failures.ok(),
                     "warm-up pass had failed batches or reads");
        result.check(setup.warmup.alignments.size() == warm.size(),
                     "warm-up pass: result count differs from reads");
        result.failed += setup.warmup.failures.poisoned.size();
        result.attempted += setup.warmup.alignments.size();
    }

    // Passes over the read set for about `seconds`.  The first pass ever
    // made becomes the reference; checks run between passes and stay out
    // of the timed sum.
    std::vector<mg::giraffe::Alignment> reference;
    auto measure = [&](const mg::giraffe::ParentEmulator& parent,
                       double seconds, const char* what,
                       std::vector<double>& pass_s,
                       mg::giraffe::ParentOutputs* last = nullptr) {
        const double phase_start = nowSeconds();
        do {
            const double t = nowSeconds();
            mg::giraffe::ParentOutputs out = parent.run(reads);
            pass_s.push_back(nowSeconds() - t);
            result.attempted += out.alignments.size();
            result.failed += out.failures.poisoned.size();
            result.check(out.failures.ok(),
                         std::string(what) + ": failed batches or reads");
            result.check(out.alignments.size() == reads.size(),
                         std::string(what) +
                             ": result count differs from reads");
            if (reference.empty()) {
                reference = out.alignments;
            }
            bool same = out.alignments.size() == reference.size();
            for (size_t i = 0; same && i < reference.size(); ++i) {
                same = sameAlignment(out.alignments[i], reference[i]);
            }
            result.check(same, std::string(what) +
                                   ": alignments differ from the first pass");
            if (last != nullptr) {
                *last = std::move(out);
            }
        } while (nowSeconds() - phase_start < seconds);
    };
    // Median over passes, so a host stall that covers a few passes moves
    // it less than total / wall would.
    auto reads_per_s = [&](const std::vector<double>& pass_s) {
        std::vector<double> rates;
        for (double s : pass_s) {
            rates.push_back(static_cast<double>(reads.size()) / s);
        }
        return median(rates);
    };

    result.provenance.integer("threads", workload.threads)
        .integer("reads_per_pass", reads.size())
        .integer("warmup_reads", warm.size())
        .integer("setups", kSetups);

    if (!options.trace) {
        std::vector<double> pass_s;
        const double cpu_start = cpuSeconds();
        measure(*setup.parent, options.seconds, "timed pass", pass_s);
        result.provenance.num("timed_cpu_s", cpuSeconds() - cpu_start);
        std::string passes;
        for (double s : pass_s) {
            passes += (passes.empty() ? "" : ", ") + std::to_string(s);
        }
        const std::string gaf =
            mg::io::formatGaf(reference, reads, setup.index->graph);
        publishFile(gafPath(options.dir, workload, options.seed), gaf);
        const Accuracy accuracy = scoreGaf(splitLines(gaf), input);
        result.check(accuracy.wellFormed, accuracy.problem);
        result.check(accuracy.correct * 2 > reads.size(),
                     "fewer than half the reads placed correctly");
        result.set("reads_per_s", reads_per_s(pass_s));
        result.set("p50_ms", median(pass_s) * 1e3);
        result.set("setup_s", median(setup_s));
        result.set("rss_mib", peakRssMiB());
        result.set("correct_frac",
                   static_cast<double>(accuracy.correct) /
                       static_cast<double>(reads.size()));
        double total_s = 0.0;
        for (double s : pass_s) {
            total_s += s;
        }
        result.provenance.raw("pass_seconds", "[" + passes + "]")
            .num("reads_per_s_total",
                 static_cast<double>(reads.size() * pass_s.size()) / total_s)
            .integer("p50_samples", pass_s.size());
        return result;
    }

    // Traced run.  Scheduler speedup: 3-thread vs 1-thread untraced.
    const double share = options.seconds / 4.0;
    std::vector<double> pass3, pass1;
    measure(*setup.parent, share, "3-thread pass", pass3);
    const mg::giraffe::ParentEmulator serial(
        setup.index->graph, setup.index->gbwt, setup.index->minimizers,
        setup.index->distance, parentParams(1));
    mg::giraffe::ParentOutputs serial_out;
    measure(serial, share, "1-thread pass", pass1, &serial_out);
    const std::string serial_gaf =
        mg::io::formatGaf(serial_out.alignments, reads, setup.index->graph);
    const double rps3 = reads_per_s(pass3);
    const double rps1 = reads_per_s(pass1);
    const double p = static_cast<double>(workload.threads);
    const double speedup = rps3 / rps1;
    result.set("sched.speedup", speedup);
    result.set("sched.serial_frac",
               p > 1.0 ? (1.0 / speedup - 1.0 / p) / (1.0 - 1.0 / p) : 0.0);

    // Outside-in traced passes: GAF byte-identical to the 1-thread run.
    PipelineParams params;
    params.mapper = setup.parent->params().mapper;
    params.post = setup.parent->params().post;
    params.pairing = setup.parent->params().pairing;
    params.rescue = setup.parent->params().rescue;
    params.pairAndRescue = true;
    std::vector<LayerPass> passes;
    const double traced_start = nowSeconds();
    do {
        passes.push_back(tracedPass(*setup.index, params, reads));
        result.attempted += reads.size();
        result.check(passes.back().gaf == serial_gaf,
                     "traced pass GAF differs from the 1-thread emulator");
    } while (nowSeconds() - traced_start < options.seconds / 2.0);
    layerMetrics(passes, result);
    publishFile(spansPath(options.dir, workload, options.seed),
                chromeTrace(passes.back().spans));
    // Traced reads/s counts only the program's own work: the extra
    // clusterSeeds call the pass makes to time clustering alone is not
    // the program's and not tracing cost.
    std::vector<double> traced_s;
    for (const LayerPass& pass : passes) {
        traced_s.push_back(static_cast<double>(programNanos(pass)) / 1e9);
    }
    result.set("trace.overhead_frac",
               1.0 - static_cast<double>(reads.size()) / median(traced_s) /
                         rps1);

    setup.index->refreshResidency();
    result.set("io.load_ms", median(load_ms));
    result.set("io.first_query_ms", median(first_ms));
    result.set("io.resident_mib",
               static_cast<double>(setup.index->info.residentBytes +
                                   setup.index->info.heapBytes) /
                   (1024.0 * 1024.0));
    result.provenance.integer("passes_3thread", pass3.size())
        .integer("passes_1thread", pass1.size())
        .integer("traced_passes", passes.size());
    return result;
}

} // namespace e2e
