#include "giraffe/batch_run.h"

#include <algorithm>

#include "io/gaf.h"
#include "util/common.h"

namespace mg::giraffe {

uint64_t
deadlineNanos(const resilience::WorkBudget& budget)
{
    return budget.wallSeconds > 0.0
               ? util::nowNanos() +
                     static_cast<uint64_t>(budget.wallSeconds * 1e9)
               : 0;
}

StateTable::StateTable(const map::Mapper& mapper, size_t workers,
                       perf::Profiler* profiler, util::MemTracer* tracer)
    : mapper_(mapper), profiler_(profiler), tracer_(tracer),
      states_(workers)
{}

map::MapperState&
StateTable::state(size_t worker, obs::Hub* hub)
{
    // Callers use dense worker indexes below the table's size.
    MG_ASSERT(worker < states_.size());
    if (!states_[worker]) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!states_[worker]) {
            auto state = mapper_.makeState(tracer_);
            if (profiler_ != nullptr) {
                state->log = profiler_->registerThread(worker);
            }
            state->attachHub(hub, worker);
            states_[worker] = std::move(state);
        }
    }
    return *states_[worker];
}

Alignment
alignRead(const map::Mapper& mapper, const PostProcessParams& post,
          const map::Read& read, map::MapperState& state,
          io::ReadExtensions* kept, std::string* gaf)
{
    // Preprocessing + critical functions (instrumented inside).
    const map::MapResult result = mapper.mapRead(read, state);
    if (kept != nullptr) {
        const auto scope = state.stage(perf::Stage::ScoreExtensions);
        kept->readName = read.name;
        kept->extensions = result.extensions;
    }
    const auto scope = state.stage(perf::Stage::Align);
    Alignment alignment = postProcess(read.name, result.extensions, post);
    alignment.degraded = result.degraded;
    if (gaf != nullptr) {
        *gaf += io::formatGafLine(alignment, read, mapper.graph());
        *gaf += '\n';
    }
    return alignment;
}

BatchRun::BatchRun(const map::Mapper& mapper, const RunParams& params,
                   perf::Profiler* profiler, util::MemTracer* tracer,
                   obs::Hub* hub)
    : params_(params), hub_(hub), deadlineNanos_(deadlineNanos(params.budget)),
      board_(params.numThreads),
      states_(mapper, params.numThreads, profiler, tracer)
{
    MG_CHECK(tracer == nullptr || params.numThreads == 1,
             "memory tracing requires a single-threaded run");
    MG_CHECK(hub == nullptr || hub->flight().workers() >= params.numThreads,
             "telemetry hub sized for ",
             hub == nullptr ? 0 : hub->flight().workers(),
             " workers, run uses ", params.numThreads);
}

map::MapperState&
BatchRun::state(size_t thread)
{
    map::MapperState& state = states_.state(thread, hub_);
    state.budget.configure(
        params_.budget, deadlineNanos_,
        params_.watchdog ? &board_.slot(thread).token : nullptr);
    return state;
}

size_t
BatchRun::mapReads(size_t n, const ReadFn& map_read, const SlotFn& unmapped,
                   RunTotals& totals)
{
    // One byte per read, set when its batch completes; batches cover
    // disjoint ranges, so workers never share a byte.
    std::vector<uint8_t> completed(n, 0);
    sched::Watchdog watchdog(board_, params_.watchdogParams);
    if (hub_ != nullptr) {
        watchdog.attachFlightRecorder(&hub_->flight());
    }
    if (params_.watchdog) {
        watchdog.start();
    }
    auto scheduler = sched::makeScheduler(params_.scheduler);
    scheduler->bindStats(&schedStats_);
    scheduler->bindStop(params_.stopFlag);
    totals.failures = sched::runGuarded(
        *scheduler, n, params_.batchSize, params_.numThreads,
        [&](size_t thread, size_t begin, size_t end) {
        map::MapperState& state = this->state(thread);
        // A failed attempt must count nowhere: runGuarded retries or
        // bisects a throwing batch, and without the rollback the partial
        // work before the throw would be counted again by the retry.
        const map::Tally before = state.tally;
        util::WallTimer batch_timer;
        try {
            mapRange(state, &board_, thread, begin, end,
                     [&](size_t i) { map_read(state, i); });
        } catch (...) {
            state.tally = before;
            throw;
        }
        // Only a *completed* batch publishes its counts and latencies.
        if (state.metrics != nullptr && hub_ != nullptr) {
            state.flushMetrics();
            state.metrics->add(hub_->sched().batches);
            state.metrics->observe(hub_->sched().batchLatency,
                                   batch_timer.nanos());
        }
        std::fill(completed.begin() + begin, completed.begin() + end, 1);
    });
    watchdog.stop();
    totals.failures.watchdogCancels = watchdog.events().size();
    totals.watchdogEvents = watchdog.events();
    totals.stopped = params_.stopFlag != nullptr &&
                     params_.stopFlag->load(std::memory_order_acquire);

    // Quarantined reads, and reads the stop flag kept from dispatching,
    // stay in the output as named placeholders, so one poisoned read or
    // a graceful stop cannot silently drop records from a run.
    size_t reads_completed = 0;
    for (size_t i = 0; i < n; ++i) {
        if (completed[i]) {
            ++reads_completed;
        } else {
            unmapped(i);
        }
    }
    return reads_completed;
}

void
BatchRun::finish(RunTotals& totals)
{
    totals.wallSeconds = timer_.seconds();
    for (const auto& state : states_.slots()) {
        if (!state) {
            continue;
        }
        totals.tally.accumulate(state->tally);
        // Work done outside any batch (the parent's pairing/rescue tail
        // on state(0)) is not yet published.
        state->flushMetrics();
    }
    if (hub_ != nullptr) {
        // Run-level counters are folded into slab 0 once the scheduler
        // is done — they come from the failure report and the policy's
        // stats, not from any single worker.
        obs::Registry::ThreadSlab* slab = hub_->slab(0);
        const obs::SchedMetricIds& ids = hub_->sched();
        const sched::FailureReport& failures = totals.failures;
        slab->add(ids.retries, failures.retries);
        slab->add(ids.quarantined, failures.poisoned.size());
        slab->add(ids.batchFailures, failures.batches.size());
        slab->add(ids.watchdogCancels, failures.watchdogCancels);
        slab->add(ids.steals, schedStats_.steals.load());
        slab->raise(ids.queueDepthPeak, schedStats_.queueDepthPeak.load());
    }
}

} // namespace mg::giraffe
