#include "giraffe/proxy.h"

#include <mutex>

#include "util/common.h"
#include "util/timer.h"

namespace mg::giraffe {

ProxyRunner::ProxyRunner(const graph::VariationGraph& graph,
                         const gbwt::Gbwt& gbwt,
                         const index::DistanceIndex& distance,
                         ProxyParams params)
    : graph_(graph), gbwt_(gbwt), distance_(distance), params_(params),
      mapper_(graph, gbwt, emptyMinimizers_, distance, params.mapper)
{}

ProxyOutputs
ProxyRunner::run(const io::SeedCapture& capture, perf::Profiler* profiler,
                 util::MemTracer* tracer, obs::Hub* hub) const
{
    ProxyOutputs outputs;
    const size_t n = capture.entries.size();
    outputs.extensions.resize(n);
    outputs.readsMapped = n;

    map::Mapper mapper = mapper_;
    if (profiler) {
        mapper.bindProfiler(*profiler);
    }
    MG_CHECK(tracer == nullptr || params_.numThreads == 1,
             "memory tracing requires a single-threaded run");
    MG_CHECK(hub == nullptr ||
                 hub->flight().workers() >= params_.numThreads,
             "telemetry hub sized for ",
             hub == nullptr ? 0 : hub->flight().workers(),
             " workers, run uses ", params_.numThreads);

    const uint64_t deadline_nanos =
        params_.budget.wallSeconds > 0.0
            ? util::nowNanos() +
                  static_cast<uint64_t>(params_.budget.wallSeconds * 1e9)
            : 0;
    sched::HeartbeatBoard board(params_.numThreads);
    std::vector<std::unique_ptr<map::MapperState>> states(
        params_.numThreads);
    std::mutex state_mutex;
    auto thread_state = [&](size_t thread) -> map::MapperState& {
        MG_ASSERT(thread < states.size());
        if (!states[thread]) {
            std::lock_guard<std::mutex> lock(state_mutex);
            if (!states[thread]) {
                auto state = mapper.makeState(tracer);
                if (profiler) {
                    state->log = profiler->registerThread(thread);
                }
                state->budget.configure(
                    params_.budget, deadline_nanos,
                    params_.watchdog ? &board.slot(thread).token : nullptr);
                if (hub != nullptr) {
                    state->metrics = hub->slab(thread);
                    state->metricIds = &hub->map();
                    state->flight = hub->flight().ring(thread);
                }
                states[thread] = std::move(state);
            }
        }
        return *states[thread];
    };

    // The mapping loop: nested iteration over reads and their seeds, the
    // outer loop parallelized by the selected scheduler (Section V).
    util::WallTimer timer;
    sched::Watchdog watchdog(board, params_.watchdogParams);
    if (hub != nullptr) {
        watchdog.attachFlightRecorder(&hub->flight());
    }
    if (params_.watchdog) {
        watchdog.start();
    }
    auto scheduler = sched::makeScheduler(params_.scheduler);
    sched::SchedStats sched_stats;
    scheduler->bindStats(&sched_stats);
    scheduler->bindStop(params_.stopFlag);
    outputs.failures = sched::runGuarded(
        *scheduler, n, params_.batchSize, params_.numThreads,
        [&](size_t thread, size_t begin, size_t end) {
        map::MapperState& state = thread_state(thread);
        board.beginBatch(thread, begin, end);
        // Snapshot/restore so a failed attempt contributes nothing: the
        // scheduler retries or bisects a throwing batch, and the retry
        // would double-count the partial work done before the throw.
        const map::MapperState::StatsSnapshot snapshot =
            state.statsSnapshot();
        util::WallTimer batch_timer;
        try {
            for (size_t i = begin; i < end; ++i) {
                board.beat(thread);
                if (state.flight != nullptr) {
                    state.flight->begin(i);
                }
                const io::ReadWithSeeds& entry = capture.entries[i];
                map::MapResult result =
                    mapper.mapFromSeeds(entry.read, entry.seeds, state);
                outputs.extensions[i].readName = entry.read.name;
                outputs.extensions[i].extensions =
                    std::move(result.extensions);
                if (state.flight != nullptr) {
                    state.flight->done();
                }
            }
        } catch (...) {
            state.restoreStats(snapshot);
            board.endBatch(thread);
            throw;
        }
        // Only a *completed* batch publishes: its buffered funnel counts
        // flush to the live slab and its latency lands in the histogram.
        if (state.metrics != nullptr && hub != nullptr) {
            state.flushMetrics();
            state.metrics->add(hub->sched().batches);
            state.metrics->observe(hub->sched().batchLatency,
                                   batch_timer.nanos());
        }
        board.endBatch(thread);
    });
    watchdog.stop();
    outputs.failures.watchdogCancels = watchdog.events().size();
    outputs.watchdogEvents = watchdog.events();
    outputs.stopped = params_.stopFlag != nullptr &&
                      params_.stopFlag->load(std::memory_order_acquire);
    if (outputs.stopped) {
        // Chunks the stop flag kept from dispatching left their slots
        // default-constructed; name them so the dump still carries one
        // record per read (seen as missing, not absent).
        for (size_t i = 0; i < n; ++i) {
            if (outputs.extensions[i].readName.empty()) {
                outputs.extensions[i].readName =
                    capture.entries[i].read.name;
            }
        }
    }

    // Quarantined reads keep their name in the dump (with no extensions)
    // so the functional validation sees them as missing, not absent.
    for (const sched::ItemFailure& item : outputs.failures.poisoned) {
        outputs.extensions[item.index] = {};
        outputs.extensions[item.index].readName =
            capture.entries[item.index].read.name;
        --outputs.readsMapped;
    }
    outputs.wallSeconds = timer.seconds();

    for (const auto& state : states) {
        if (!state) {
            continue;
        }
        outputs.cacheStats.accumulate(state->totalStats());
        outputs.extensionTotals.accumulate(state->extensionTotals);
        outputs.resilience.accumulate(state->resilience);
        state->flushMetrics(); // leftovers (nothing in steady state)
    }
    if (hub != nullptr) {
        // Run-level counters are folded into slab 0 once the scheduler
        // is done — they come from the failure report and the policy's
        // stats, not from any single worker.
        obs::Registry::ThreadSlab* slab = hub->slab(0);
        const obs::SchedMetricIds& ids = hub->sched();
        slab->add(ids.retries, outputs.failures.retries);
        slab->add(ids.quarantined, outputs.failures.poisoned.size());
        slab->add(ids.batchFailures, outputs.failures.batches.size());
        slab->add(ids.watchdogCancels,
                  outputs.failures.watchdogCancels);
        slab->add(ids.steals, sched_stats.steals.load());
        slab->raise(ids.queueDepthPeak,
                    sched_stats.queueDepthPeak.load());
    }
    return outputs;
}

} // namespace mg::giraffe
