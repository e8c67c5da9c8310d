/**
 * @file
 * The read driver of ParentEmulator, ProxyRunner and MapSession, which
 * differ only in what they do per read and in what they keep: the
 * per-worker MapperState table, the deadline rule, the heartbeat/flight
 * loop over a range of reads, the full pipeline's per-read body, and the
 * batch runs' scheduling, retry, watchdog and telemetry (BatchRun).
 */
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "giraffe/alignment.h"
#include "io/extensions_io.h"
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

/** The absolute deadline (util::nowNanos domain) of a budget's wall
 *  time, counted from now; 0 when the budget sets none. */
uint64_t deadlineNanos(const resilience::WorkBudget& budget);

/**
 * Per-worker MapperStates, each created on first use and wired to its
 * worker's profiler log and hub slot.  Distinct workers may call state()
 * concurrently.
 */
class StateTable
{
  public:
    /** `mapper` must outlive the table; the profiler (registered per
     *  worker) and the memory tracer are optional. */
    StateTable(const map::Mapper& mapper, size_t workers,
               perf::Profiler* profiler = nullptr,
               util::MemTracer* tracer = nullptr);

    size_t size() const { return states_.size(); }

    /** Worker `worker`'s state; a state created now is wired to `hub`
     *  (null for none). */
    map::MapperState& state(size_t worker, obs::Hub* hub);

    /** One slot per worker, null until its state is created. */
    const std::vector<std::unique_ptr<map::MapperState>>&
    slots() const
    {
        return states_;
    }

  private:
    const map::Mapper& mapper_;
    perf::Profiler* profiler_;
    util::MemTracer* tracer_;
    std::mutex mutex_;
    std::vector<std::unique_ptr<map::MapperState>> states_;
};

/**
 * Map reads [begin, end) on worker `worker`, calling body(i) per read
 * inside the flight recorder's begin/done marks.  With a board the worker
 * follows the heartbeat protocol: beginBatch re-arms its cancel token,
 * every read beats, and the slot is parked on the way out, also when
 * body throws.
 */
template <typename Body>
void
mapRange(map::MapperState& state, sched::HeartbeatBoard* board,
         size_t worker, size_t begin, size_t end, Body&& body)
{
    if (board != nullptr) {
        board->beginBatch(worker, begin, end);
    }
    try {
        for (size_t i = begin; i < end; ++i) {
            if (board != nullptr) {
                board->beat(worker);
            }
            if (state.flight != nullptr) {
                state.flight->begin(i);
            }
            state.readIndex = i;
            body(i);
            if (state.flight != nullptr) {
                state.flight->done();
            }
        }
    } catch (...) {
        if (board != nullptr) {
            board->endBatch(worker);
        }
        throw;
    }
    if (board != nullptr) {
        board->endBatch(worker);
    }
}

/**
 * The full pipeline for one read: seed, cluster and extend, then
 * post-process under the Align stage; the alignment carries the read's
 * degradation reason.  `kept` (nullable) receives the raw extensions
 * under ScoreExtensions — the parent's record of the critical functions'
 * output.  `gaf` (nullable) gets the read's GAF line, formatted inside
 * Align.
 */
Alignment alignRead(const map::Mapper& mapper, const PostProcessParams& post,
                    const map::Read& read, map::MapperState& state,
                    io::ReadExtensions* kept, std::string* gaf);

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
    /** Every worker's tally, summed: the mapping funnel, degraded reads,
     *  CachedGBWT statistics and per-read latency of the run. */
    map::Tally tally;
    /** Batch failures, recoveries, and quarantined reads of the run.
     *  Quarantined reads stay in the output as named placeholders. */
    sched::FailureReport failures;
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
 * per-thread StateTable, the absolute deadline, the heartbeat board and
 * watchdog, and the scheduler under sched::runGuarded.
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

    /** Worker `thread`'s state, created on first use, its budget bound
     *  to the run's limits and deadline. */
    map::MapperState& state(size_t thread);

    /**
     * Map reads [0, n) in guarded batches, calling map_read once per read
     * of every batch attempt; a failed attempt's tally is rolled back and
     * only completed batches publish metrics.  Afterwards `unmapped`
     * is called for every read that did not complete — quarantined, or
     * never dispatched because the stop flag fired — so the output still
     * holds one record per read.  Fills totals.failures, watchdogEvents
     * and stopped.  Returns the number of reads that completed.
     */
    size_t mapReads(size_t n, const ReadFn& map_read, const SlotFn& unmapped,
                    RunTotals& totals);

    /**
     * End the run: stamp wallSeconds, sum every worker's tally, publish
     * what work outside a batch counted, and fold the run-level scheduler
     * counters into hub slab 0.
     */
    void finish(RunTotals& totals);

  private:
    const RunParams& params_;
    obs::Hub* hub_;
    /** Absolute, so late-created states inherit the same cutoff. */
    uint64_t deadlineNanos_;
    sched::HeartbeatBoard board_;
    sched::SchedStats schedStats_;
    StateTable states_;
    util::WallTimer timer_;
};

} // namespace mg::giraffe
