/**
 * @file
 * The batch run loop shared by ParentEmulator and ProxyRunner, which
 * differ only in what they do per read (full pipeline + post-processing
 * vs critical functions from captured seeds) and in what they keep.
 * The scheduling, retry, watchdog and telemetry around that per-read
 * body live here, once.
 */
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "gbwt/cached_gbwt.h"
#include "map/mapper.h"
#include "obs/hub.h"
#include "perf/profiler.h"
#include "resilience/budget.h"
#include "sched/failure.h"
#include "sched/scheduler.h"
#include "sched/watchdog.h"
#include "util/mem_tracer.h"
#include "util/timer.h"

namespace mg::giraffe {

/** Run configuration common to the batch runners. */
struct RunParams
{
    explicit RunParams(sched::SchedulerKind kind) : scheduler(kind) {}

    sched::SchedulerKind scheduler;
    /** Reads per dispatched batch (Section VII-B). */
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

/** Run results common to the batch runners. */
struct RunTotals
{
    /** Aggregated CachedGBWT statistics over all worker threads. */
    gbwt::CacheStats cacheStats;
    /** Seeds walked vs skipped as covered, over all worker threads. */
    map::ExtensionTotals extensionTotals;
    /** Batch failures, recoveries, and quarantined reads of the run.
     *  Quarantined reads stay in the output as named placeholders. */
    sched::FailureReport failures;
    /** Degradation counters + per-read latency over all worker threads. */
    resilience::ResilienceStats resilience;
    /** Watchdog cancellations with flight-recorder context (when a hub
     *  with a recorder was attached), in detection order. */
    std::vector<sched::WatchdogEvent> watchdogEvents;
    /** Wall-clock seconds of the run, from setup to finish(). */
    double wallSeconds = 0.0;
    /** The stop flag fired during the run; unvisited reads are named
     *  placeholders in the output. */
    bool stopped = false;
};

/**
 * One batch mapping run: construct, mapReads() once, finish().  Owns the
 * lazily created per-thread MapperStates, the absolute deadline, the
 * heartbeat board and watchdog, and the scheduler under sched::runGuarded.
 */
class BatchRun
{
  public:
    /** Map read `index` with the calling worker's state. */
    using ReadFn = std::function<void(map::MapperState& state, size_t index)>;
    /** Leave a named placeholder for read `index`. */
    using SlotFn = std::function<void(size_t index)>;

    /**
     * @param mapper,params Must outlive the run (the runner's own).
     * @param profiler Optional region instrumentation, registered per
     *        worker thread.
     * @param tracer Optional memory tracer (single-threaded runs only).
     * @param hub Optional telemetry hub; must be sized for at least
     *        params.numThreads workers.
     */
    BatchRun(const map::Mapper& mapper, const RunParams& params,
             perf::Profiler* profiler, util::MemTracer* tracer,
             obs::Hub* hub);

    // Workers and the watchdog hold the board's and the states' addresses.
    BatchRun(const BatchRun&) = delete;
    BatchRun& operator=(const BatchRun&) = delete;

    /** Worker `thread`'s state, created on first use. */
    map::MapperState& state(size_t thread);

    /**
     * Map reads [0, n) in guarded batches, calling map_read once per read
     * of every batch attempt; a failed attempt's stats are rolled back
     * and only completed batches publish metrics.  Afterwards `unmapped`
     * is called for every read that did not complete — quarantined, or
     * never dispatched because the stop flag fired — so the output still
     * holds one record per read.  Fills totals.failures, watchdogEvents
     * and stopped.  Returns the number of reads that completed.
     */
    size_t mapReads(size_t n, const ReadFn& map_read, const SlotFn& unmapped,
                    RunTotals& totals);

    /**
     * End the run: stamp wallSeconds, roll up every worker's totals,
     * flush funnel counts still buffered by work done outside a batch,
     * and fold the run-level scheduler counters into hub slab 0.
     */
    void finish(RunTotals& totals);

  private:
    const RunParams& params_;
    perf::Profiler* profiler_;
    util::MemTracer* tracer_;
    obs::Hub* hub_;
    const map::Mapper& mapper_;
    /** Absolute, so late-created states inherit the same cutoff. */
    uint64_t deadlineNanos_ = 0;
    sched::HeartbeatBoard board_;
    sched::SchedStats schedStats_;
    std::mutex stateMutex_;
    std::vector<std::unique_ptr<map::MapperState>> states_;
    util::WallTimer timer_;
};

} // namespace mg::giraffe
