/**
 * @file
 * The parent-application emulator: a faithful miniature of Giraffe's full
 * mapping pipeline, standing in for the 50 kLoC vg Giraffe the paper
 * validates against (substitution documented in DESIGN.md).  Per read it
 * runs preprocessing (minimizer lookup + seed creation), the two critical
 * functions (cluster_seeds, process_until_threshold_c/extend), and the
 * post-processing (extension scoring/filtering, alignment, MAPQ), spread
 * over worker threads by a VG-style batch scheduler.  Every region is
 * instrumented with the paper's region names so the characterization
 * figures (2, 3, 4) and the validation tables (V, VI) can be regenerated.
 */
#pragma once

#include <vector>

#include "giraffe/alignment.h"
#include "giraffe/batch_run.h"
#include "giraffe/pairing.h"
#include "giraffe/rescue.h"
#include "io/extensions_io.h"
#include "io/reads_bin.h"

namespace mg::giraffe {

/** Parent pipeline configuration. */
struct ParentParams : RunParams
{
    /** Giraffe's own scheduler is the VG-style batch dispatcher. */
    ParentParams() : RunParams(sched::SchedulerKind::VgBatch) {}

    map::MapperParams mapper;
    PostProcessParams post;
    PairingParams pairing;
    RescueParams rescue;
    /** Attempt mate rescue on non-proper pairs (paired-end runs). */
    bool mateRescue = true;
};

/**
 * Everything a parent run produces.  Quarantined reads, and reads a stop
 * kept from mapping, appear unmapped in `alignments` (and in any GAF
 * rendered from them) instead of aborting or truncating the run.
 */
struct ParentOutputs : RunTotals
{
    /** Final post-processed alignments, one per read. */
    std::vector<Alignment> alignments;
    /** Pairing verdicts (paired-end read sets only). */
    std::vector<PairResult> pairs;
    /** Mate-rescue outcome (paired-end runs with rescue enabled). */
    RescueStats rescue;
    /** Raw critical-function outputs (what the proxy must reproduce). */
    std::vector<io::ReadExtensions> extensions;
};

/** The emulated parent application. */
class ParentEmulator
{
  public:
    ParentEmulator(const graph::VariationGraph& graph,
                   const gbwt::Gbwt& gbwt,
                   const index::MinimizerIndex& minimizers,
                   const index::DistanceIndex& distance,
                   ParentParams params);

    const ParentParams& params() const { return params_; }
    const map::Mapper& mapper() const { return mapper_; }

    /**
     * Map a read set through the full pipeline.
     * @param profiler Optional region instrumentation sink.
     * @param tracer Optional memory tracer; only honoured for
     *        single-threaded runs (counters are collected at 1 thread in
     *        the paper as well).
     * @param hub Optional telemetry hub (live metrics + flight recorder);
     *        must be sized for at least numThreads workers.
     */
    ParentOutputs run(const map::ReadSet& reads,
                      perf::Profiler* profiler = nullptr,
                      util::MemTracer* tracer = nullptr,
                      obs::Hub* hub = nullptr) const;

    /**
     * Capture the preprocessing output (reads plus their seeds) right
     * before the critical functions — the proxy's input file, as in the
     * paper's methodology.
     */
    io::SeedCapture capturePreprocessing(const map::ReadSet& reads) const;

  private:
    const index::MinimizerIndex& minimizers_;
    const index::DistanceIndex& distance_;
    ParentParams params_;
    map::Mapper mapper_;
};

} // namespace mg::giraffe
