/**
 * @file
 * The miniGiraffe proxy runner: the critical functions only, driven from a
 * preprocessing capture (reads + seeds), exactly as the paper's proxy
 * consumes its sequence-seeds.bin input.  The runner exposes the three
 * tuning parameters of Section VII-B — scheduler, batch size, and initial
 * CachedGBWT capacity — and reports makespan (end-to-end wall clock) plus
 * cache statistics for the autotuning harness.
 */
#pragma once

#include <vector>

#include "giraffe/batch_run.h"
#include "io/extensions_io.h"
#include "io/reads_bin.h"

namespace mg::giraffe {

/** The proxy's run configuration (the paper's tuning space). */
struct ProxyParams : RunParams
{
    /** miniGiraffe's default scheduler is OpenMP dynamic. */
    ProxyParams() : RunParams(sched::SchedulerKind::OmpDynamic) {}

    map::MapperParams mapper;
};

/**
 * Outputs of one proxy run.  Quarantined reads, and reads a stop kept
 * from mapping, keep their name in `extensions` but carry no extensions.
 */
struct ProxyOutputs : RunTotals
{
    /** Raw mapping results: offsets and scores of each match. */
    std::vector<io::ReadExtensions> extensions;
    /** Reads whose batch completed (quarantined reads excluded). */
    uint64_t readsMapped = 0;
};

/** miniGiraffe: maps a capture through the critical functions. */
class ProxyRunner
{
  public:
    ProxyRunner(const graph::VariationGraph& graph, const gbwt::Gbwt& gbwt,
                const index::DistanceIndex& distance, ProxyParams params);

    const ProxyParams& params() const { return params_; }

    /**
     * Map every read of the capture.
     * @param profiler Optional region instrumentation.
     * @param tracer Optional memory tracer (single-threaded runs only).
     * @param hub Optional telemetry hub (live metrics + flight recorder);
     *        must be sized for at least numThreads workers.
     */
    ProxyOutputs run(const io::SeedCapture& capture,
                     perf::Profiler* profiler = nullptr,
                     util::MemTracer* tracer = nullptr,
                     obs::Hub* hub = nullptr) const;

  private:
    ProxyParams params_;
    /** The proxy never seeds, but the mapper needs an index reference; an
     *  empty index satisfies the dependency without being queried. */
    index::MinimizerIndex emptyMinimizers_;
    map::Mapper mapper_;
};

} // namespace mg::giraffe
