#include "giraffe/parent.h"

#include <mutex>

#include "util/common.h"
#include "util/timer.h"

namespace mg::giraffe {

ParentEmulator::ParentEmulator(const graph::VariationGraph& graph,
                               const gbwt::Gbwt& gbwt,
                               const index::MinimizerIndex& minimizers,
                               const index::DistanceIndex& distance,
                               ParentParams params)
    : graph_(graph), gbwt_(gbwt), minimizers_(minimizers),
      distance_(distance), params_(params),
      mapper_(graph, gbwt, minimizers, distance, params.mapper)
{}

ParentOutputs
ParentEmulator::run(const map::ReadSet& reads, perf::Profiler* profiler,
                    util::MemTracer* tracer, obs::Hub* hub) const
{
    ParentOutputs outputs;
    const size_t n = reads.size();
    outputs.alignments.resize(n);
    outputs.extensions.resize(n);

    // Region ids (cheap to look up even when profiling is off).
    perf::RegionId region_score = 0;
    perf::RegionId region_align = 0;
    map::Mapper mapper = mapper_; // local copy to bind the profiler
    if (profiler) {
        mapper.bindProfiler(*profiler);
        region_score = profiler->regionId(perf::regions::kScoreExtensions);
        region_align = profiler->regionId(perf::regions::kAlign);
    }

    MG_CHECK(tracer == nullptr || params_.numThreads == 1,
             "memory tracing requires a single-threaded run");
    MG_CHECK(hub == nullptr ||
                 hub->flight().workers() >= params_.numThreads,
             "telemetry hub sized for ",
             hub == nullptr ? 0 : hub->flight().workers(),
             " workers, run uses ", params_.numThreads);

    // Lazily created per-thread state; the scheduler guarantees a dense
    // thread index below numThreads.  The run's deadline is absolute, so
    // late-created states inherit the same cutoff.
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
        // Snapshot so a failed attempt contributes nothing to the final
        // counters: runGuarded retries/bisects a throwing batch, and
        // without the restore the partial work before the throw would be
        // double-counted by the retry.
        const map::MapperState::StatsSnapshot snapshot =
            state.statsSnapshot();
        util::WallTimer batch_timer;
        try {
            for (size_t i = begin; i < end; ++i) {
                board.beat(thread);
                if (state.flight != nullptr) {
                    state.flight->begin(i);
                }
                const map::Read& read = reads.reads[i];
                // Preprocessing + critical functions (instrumented inside).
                map::MapResult result = mapper.mapRead(read, state);

                // Post-processing: score/filter extensions, emit alignment.
                {
                    perf::ScopedRegion region(state.log, region_score);
                    outputs.extensions[i].readName = read.name;
                    outputs.extensions[i].extensions = result.extensions;
                }
                {
                    perf::ScopedRegion region(state.log, region_align);
                    outputs.alignments[i] = postProcess(
                        read.name, result.extensions, params_.post);
                    outputs.alignments[i].degraded = result.degraded;
                }
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
        // Batches the stop flag kept from dispatching left their slots
        // default-constructed; name them so the GAF still carries one
        // record per read (rendered unmapped, like quarantined reads).
        for (size_t i = 0; i < n; ++i) {
            if (outputs.alignments[i].readName.empty()) {
                outputs.alignments[i].readName = reads.reads[i].name;
                outputs.extensions[i].readName = reads.reads[i].name;
            }
        }
    }

    // Quarantined reads stay in the output as named unmapped records (the
    // GAF writer renders them with '*' placeholders) so one poisoned read
    // cannot abort — or silently vanish from — a whole mapping run.
    for (const sched::ItemFailure& item : outputs.failures.poisoned) {
        const map::Read& read = reads.reads[item.index];
        outputs.alignments[item.index] = Alignment{};
        outputs.alignments[item.index].readName = read.name;
        outputs.extensions[item.index] = {};
        outputs.extensions[item.index].readName = read.name;
    }

    // Paired-end workflow: the pairing stage runs after both mates of
    // every fragment are mapped (input sets C and D of the paper), and
    // mate rescue re-places the weak mate of non-proper pairs.
    if (reads.pairedEnd) {
        outputs.pairs = pairAlignments(reads, outputs.alignments,
                                       distance_, params_.pairing);
        if (params_.mateRescue) {
            outputs.rescue = rescuePairs(
                mapper, minimizers_, distance_, reads, outputs.alignments,
                outputs.pairs, thread_state(0), params_.pairing,
                params_.post, params_.rescue);
        }
    }
    outputs.wallSeconds = timer.seconds();

    for (const auto& state : states) {
        if (!state) {
            continue;
        }
        outputs.cacheStats.accumulate(state->totalStats());
        outputs.extensionTotals.accumulate(state->extensionTotals);
        outputs.resilience.accumulate(state->resilience);
        // The pairing/rescue stage works on thread_state(0) outside any
        // batch, so its funnel counts are still buffered here.
        state->flushMetrics();
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
        slab->add(hub->map().rescueAttempts, outputs.rescue.attempted);
        slab->add(hub->map().rescueHits, outputs.rescue.rescued);
    }
    return outputs;
}

io::SeedCapture
ParentEmulator::capturePreprocessing(const map::ReadSet& reads) const
{
    io::SeedCapture capture;
    capture.pairedEnd = reads.pairedEnd;
    capture.entries.reserve(reads.size());
    for (const map::Read& read : reads.reads) {
        io::ReadWithSeeds entry;
        entry.read = read;
        entry.seeds =
            map::findSeeds(minimizers_, read, params_.mapper.seeding);
        capture.entries.push_back(std::move(entry));
    }
    return capture;
}

} // namespace mg::giraffe
