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

#include <memory>
#include <vector>

#include "gbwt/cached_gbwt.h"
#include "io/extensions_io.h"
#include "io/reads_bin.h"
#include "map/mapper.h"
#include "obs/hub.h"
#include "perf/profiler.h"
#include "resilience/budget.h"
#include "sched/failure.h"
#include "sched/scheduler.h"
#include "sched/watchdog.h"
#include "util/mem_tracer.h"

namespace mg::giraffe {

/** The proxy's run configuration (the paper's tuning space). */
struct ProxyParams
{
    map::MapperParams mapper;
    /** miniGiraffe's default scheduler is OpenMP dynamic. */
    sched::SchedulerKind scheduler = sched::SchedulerKind::OmpDynamic;
    size_t batchSize = 512;
    size_t numThreads = 1;
    /** Work limits (deadline + per-read caps); default is unlimited. */
    resilience::WorkBudget budget;
    /** Supervise workers with a watchdog thread. */
    bool watchdog = false;
    sched::WatchdogParams watchdogParams;
    /** Graceful-stop flag (SIGTERM/SIGINT): once set, no new batch is
     *  dispatched; running batches finish.  Null disables. */
    const std::atomic<bool>* stopFlag = nullptr;
};

/** Outputs of one proxy run. */
struct ProxyOutputs
{
    /** Raw mapping results: offsets and scores of each match. */
    std::vector<io::ReadExtensions> extensions;
    gbwt::CacheStats cacheStats;
    /** Seeds walked vs skipped as covered, over all worker threads. */
    map::ExtensionTotals extensionTotals;
    /** Batch failures, recoveries, and quarantined reads of the run.
     *  Quarantined reads keep their name but carry no extensions. */
    sched::FailureReport failures;
    /** Degradation counters + per-read latency over all worker threads. */
    resilience::ResilienceStats resilience;
    /** Watchdog cancellations with flight-recorder context (when a hub
     *  with a recorder was attached), in detection order. */
    std::vector<sched::WatchdogEvent> watchdogEvents;
    /** Makespan (wall-clock seconds of the mapping loop). */
    double wallSeconds = 0.0;
    /** Reads that produced a mapping attempt (quarantined reads excluded). */
    uint64_t readsMapped = 0;
    /** The stop flag fired during the run. */
    bool stopped = false;
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
    const graph::VariationGraph& graph_;
    const gbwt::Gbwt& gbwt_;
    const index::DistanceIndex& distance_;
    ProxyParams params_;
    /** The proxy never seeds, but the mapper needs an index reference; an
     *  empty index satisfies the dependency without being queried. */
    index::MinimizerIndex emptyMinimizers_;
    map::Mapper mapper_;
};

} // namespace mg::giraffe
