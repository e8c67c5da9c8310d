#include "obs/hub.h"

namespace mg::obs {

Hub::Hub(size_t workers, size_t flight_ring_size)
    : Hub(workers, std::vector<std::string>{}, flight_ring_size)
{}

Hub::Hub(size_t workers, const std::vector<std::string>& serve_tenants,
         size_t flight_ring_size)
    : flight_(workers, flight_ring_size)
{
    for (size_t c = 0; c < kMapCounts; ++c) {
        // The read-latency histogram keeps its place in the export order,
        // between the degradation and the GBWT cache counters.
        if (static_cast<MapCount>(c) == MapCount::GbwtLookups) {
            map_.readLatency =
                registry_.histogram("mg_map_read_latency_ns",
                                    "Per-read mapping latency");
        }
        map_.counts[c] = registry_.counter(kMapCountMetrics[c].name,
                                           kMapCountMetrics[c].help);
    }

    sched_.batches = registry_.counter("mg_sched_batches_total",
                                       "Work batches completed");
    sched_.steals = registry_.counter("mg_sched_steals_total",
                                      "Batches executed by a thread other "
                                      "than their producer");
    sched_.retries = registry_.counter("mg_sched_retries_total",
                                       "Failed batches retried by "
                                       "runGuarded");
    sched_.quarantined =
        registry_.counter("mg_sched_quarantined_total",
                          "Items quarantined after exhausting retries");
    sched_.batchFailures =
        registry_.counter("mg_sched_batch_failures_total",
                          "Batch executions that threw");
    sched_.watchdogCancels =
        registry_.counter("mg_sched_watchdog_cancels_total",
                          "Batches cancelled by the watchdog");
    sched_.batchLatency =
        registry_.histogram("mg_sched_batch_latency_ns",
                            "Per-batch wall time");
    sched_.queueDepthPeak =
        registry_.gauge("mg_sched_queue_depth_peak",
                        "Peak depth of the batch handoff queue");

    checkpoint_.flushes =
        registry_.counter("mg_checkpoint_flushes_total",
                          "Checkpoint shards flushed durably");
    checkpoint_.flushBytes =
        registry_.counter("mg_checkpoint_flush_bytes_total",
                          "Bytes written by checkpoint flushes");
    checkpoint_.flushNanos =
        registry_.counter("mg_checkpoint_flush_ns_total",
                          "Wall time spent in checkpoint flushes");

    serve_.requests =
        registry_.counter("mg_serve_requests_total",
                          "Frames decoded into mapping requests");
    serve_.badFrames =
        registry_.counter("mg_serve_bad_frames_total",
                          "Frames rejected at the protocol layer");
    serve_.drains = registry_.counter("mg_serve_drains_total",
                                      "Graceful drains started");
    serve_.drainShed =
        registry_.counter("mg_serve_drain_shed_total",
                          "Queued requests shed at the drain deadline");
    serve_.drainForced =
        registry_.counter("mg_serve_drain_forced_total",
                          "In-flight requests force-degraded at the "
                          "drain deadline");
    serve_.queueDepth = registry_.gauge("mg_serve_queue_depth_peak",
                                        "Peak request-queue depth");
    serve_.reloads = registry_.counter("mg_serve_reloads_total",
                                       "Hot swaps published");
    serve_.reloadsRejected =
        registry_.counter("mg_serve_reloads_rejected_total",
                          "Hot swaps rejected by validation");
    serve_.generation =
        registry_.gauge("mg_serve_generation",
                        "Currently published pangenome generation");
    serve_.generationsRetired =
        registry_.counter("mg_serve_generations_retired_total",
                          "Old generations fully unmapped");
    serve_.reloadLatency =
        registry_.histogram("mg_serve_reload_latency_ns",
                            "Wall time of successful swaps");
    for (size_t s = 0; s < kSpanStages; ++s) {
        serve_.stageNanos[s] = registry_.histogram(
            "mg_serve_stage_ns{" +
                promLabel("stage",
                          spanStageName(static_cast<SpanStage>(s))) +
                "}",
            "Per-stage time of traced requests");
    }
    serve_.tenants = serve_tenants;
    serve_.perTenant.reserve(serve_tenants.size());
    for (const std::string& tenant : serve_tenants) {
        ServeTenantMetricIds ids;
        auto named = [&tenant](const char* stem) {
            return std::string(stem) + "{" + promLabel("tenant", tenant) +
                   "}";
        };
        ids.accepted = registry_.counter(
            named("mg_serve_accepted_total"),
            "Requests admitted past admission control");
        ids.shed = registry_.counter(
            named("mg_serve_shed_total"),
            "Requests rejected with RETRY_AFTER");
        ids.completed = registry_.counter(
            named("mg_serve_completed_total"), "Requests answered Ok");
        ids.degraded = registry_.counter(
            named("mg_serve_degraded_total"),
            "Ok responses containing degraded reads");
        ids.errors = registry_.counter(named("mg_serve_errors_total"),
                                       "Requests answered Error");
        ids.deadlineShed = registry_.counter(
            named("mg_serve_deadline_shed_total"),
            "Queued requests shed past their client deadline");
        ids.latency = registry_.histogram(
            named("mg_serve_request_latency_ns"),
            "Admission-to-response latency");
        serve_.perTenant.push_back(ids);
    }
}

} // namespace mg::obs
