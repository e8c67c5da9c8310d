/**
 * @file
 * Observability hub: one object an app constructs when any telemetry flag
 * is set, bundling the metrics Registry (with every repo metric already
 * registered, so the layout freezes correctly before workers start), the
 * FlightRecorder, and the typed metric-id structs each subsystem needs.
 * Passing `Hub*` (nullable) through run() entry points is the wiring
 * convention: a null hub means telemetry is off and the hot path pays one
 * pointer test.
 *
 * Metric naming scheme (see DESIGN.md §3g): `mg_<area>_<noun>_total` for
 * counters, `mg_<area>_<noun>_ns` for nanosecond histograms/durations,
 * bare `mg_<area>_<noun>` for gauges; fixed label sets are baked into the
 * name ("mg_map_degraded_total{reason=\"deadline\"}") so the hot path
 * never formats labels.
 */
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"

namespace mg::obs {

/**
 * The mapping counts, in export order: one slot each of map::Tally, one
 * counter each of MapMetricIds, named by kMapCountMetrics.
 * Adding a count is one enumerator plus one table row.
 */
enum class MapCount : uint8_t
{
    Reads,
    Seeds,
    ClustersFormed,
    ClustersProcessed,
    ExtensionsAttempted,
    ExtensionsAborted,
    ExtensionsPrefiltered,
    ExtensionsCovered,
    ExtensionsEmitted,
    RescueAttempts,
    RescueHits,
    /** One per resilience::CancelReason after None, in its order. */
    DegradedDeadline,
    DegradedStepCap,
    DegradedLookupCap,
    DegradedWatchdog,
    /** The CachedGbwt statistics (gbwt::CacheStats fields). */
    GbwtLookups,
    GbwtHits,
    GbwtDecodes,
    GbwtRehashes,
    GbwtProbes,
    GbwtRecycles,
};
inline constexpr size_t kMapCounts =
    static_cast<size_t>(MapCount::GbwtRecycles) + 1;

/** A metric's exported name (labels baked in) and HELP text. */
struct MetricInfo
{
    const char* name;
    const char* help;
};

/** Name and HELP of each MapCount, index-aligned with the enum. */
inline constexpr std::array<MetricInfo, kMapCounts> kMapCountMetrics{{
    {"mg_map_reads_total", "Reads entering the mapping funnel"},
    {"mg_map_seeds_total", "Minimizer seeds fed to clustering"},
    {"mg_map_clusters_formed_total", "Seed clusters formed"},
    {"mg_map_clusters_processed_total",
     "Seed clusters scored by process_until_threshold_c"},
    {"mg_map_extensions_attempted_total", "Seed extensions started"},
    {"mg_map_extensions_aborted_total{reason=\"budget\"}",
     "Seed extensions cut short by the budget"},
    {"mg_map_extensions_aborted_total{reason=\"prefilter\"}",
     "Chosen seeds killed by the score prefilter before extension"},
    {"mg_map_extensions_aborted_total{reason=\"covered\"}",
     "Chosen seeds skipped: an earlier seed's extension covers them"},
    {"mg_map_extensions_emitted_total",
     "Extensions surviving to the result set"},
    {"mg_map_rescue_attempts_total", "Paired-end mate rescue attempts"},
    {"mg_map_rescue_hits_total", "Mate rescues that produced an alignment"},
    {"mg_map_degraded_total{reason=\"deadline\"}",
     "Reads degraded (dg:Z) by budget or watchdog"},
    {"mg_map_degraded_total{reason=\"step_cap\"}",
     "Reads degraded (dg:Z) by budget or watchdog"},
    {"mg_map_degraded_total{reason=\"lookup_cap\"}",
     "Reads degraded (dg:Z) by budget or watchdog"},
    {"mg_map_degraded_total{reason=\"watchdog\"}",
     "Reads degraded (dg:Z) by budget or watchdog"},
    {"mg_gbwt_lookups_total", "CachedGbwt record lookups"},
    {"mg_gbwt_hits_total", "CachedGbwt cache hits"},
    {"mg_gbwt_decodes_total", "GBWT record decodes (misses)"},
    {"mg_gbwt_rehashes_total", "CachedGbwt table rehashes"},
    {"mg_gbwt_probes_total", "CachedGbwt probe steps"},
    {"mg_gbwt_recycles_total",
     "Cache entries recycled across epochs instead of allocated"},
}};
static_assert(kMapCountMetrics.back().name != nullptr,
              "kMapCountMetrics needs one row per MapCount");

/** Mapper ids: one counter per MapCount plus the read-latency histogram
 *  (published by MapperState::flushMetrics). */
struct MapMetricIds
{
    std::array<CounterId, kMapCounts> counts;
    HistogramId readLatency;
};

/** Scheduler / failure-isolation ids (mostly folded in at end of run). */
struct SchedMetricIds
{
    CounterId batches;
    CounterId steals;
    CounterId retries;
    CounterId quarantined;
    CounterId batchFailures;
    CounterId watchdogCancels;
    HistogramId batchLatency;
    GaugeId queueDepthPeak;
};

/** Checkpoint writer ids. */
struct CheckpointMetricIds
{
    CounterId flushes;
    CounterId flushBytes;
    CounterId flushNanos;
};

/** Serving-plane ids for one tenant (label baked into the name). */
struct ServeTenantMetricIds
{
    /** Requests admitted past admission control. */
    CounterId accepted;
    /** Requests rejected with RETRY_AFTER (backpressure). */
    CounterId shed;
    /** Requests answered Ok. */
    CounterId completed;
    /** Ok responses containing at least one dg:Z-degraded read. */
    CounterId degraded;
    /** Requests answered Error (malformed, mapping failure, dead peer). */
    CounterId errors;
    /** Queued requests shed because their client deadline could no
     *  longer be met (DEADLINE_SHED). */
    CounterId deadlineShed;
    /** Admission-to-response latency (the SLO histogram). */
    HistogramId latency;
};

/** Daemon-wide serving ids plus the per-tenant sets. */
struct ServeMetricIds
{
    /** Tenant names, index-aligned with perTenant. */
    std::vector<std::string> tenants;
    std::vector<ServeTenantMetricIds> perTenant;
    /** Frames decoded into requests (before admission). */
    CounterId requests;
    /** Frames rejected at the protocol layer (magic/CRC/decode). */
    CounterId badFrames;
    /** Graceful drains started. */
    CounterId drains;
    /** Queued requests shed at the drain deadline (ShuttingDown). */
    CounterId drainShed;
    /** Requests force-degraded past the drain deadline. */
    CounterId drainForced;
    /** Peak request-queue depth (max-aggregated gauge). */
    GaugeId queueDepth;
    /** Hot swaps published (successful RELOADs). */
    CounterId reloads;
    /** RELOADs rejected by validation (old index kept serving). */
    CounterId reloadsRejected;
    /** Currently published pangenome generation (max-aggregated gauge). */
    GaugeId generation;
    /** Old generations fully retired (last pinned request completed,
     *  arenas unmapped). */
    CounterId generationsRetired;
    /** Wall time of successful swaps, load-to-publish. */
    HistogramId reloadLatency;
    /** Per-stage request time, one labelled histogram per SpanStage
     *  (`mg_serve_stage_ns{stage="..."}`), fed by traced requests. */
    std::array<HistogramId, kSpanStages> stageNanos;
};

class Hub
{
  public:
    explicit Hub(size_t workers,
                 size_t flight_ring_size =
                     FlightRecorder::kDefaultRingSize);

    /**
     * Hub for a serving daemon: additionally registers the serving-plane
     * metrics, one labelled set per tenant name, before the layout
     * freezes.  Tenant order is preserved; serve().perTenant is
     * index-aligned with `serve_tenants`.
     */
    Hub(size_t workers, const std::vector<std::string>& serve_tenants,
        size_t flight_ring_size = FlightRecorder::kDefaultRingSize);

    Registry& registry() { return registry_; }
    const Registry& registry() const { return registry_; }
    FlightRecorder& flight() { return flight_; }
    const FlightRecorder& flight() const { return flight_; }

    const MapMetricIds& map() const { return map_; }
    const SchedMetricIds& sched() const { return sched_; }
    const CheckpointMetricIds& checkpoint() const { return checkpoint_; }
    const ServeMetricIds& serve() const { return serve_; }

    /** Shorthand for registry().registerThread(worker). */
    Registry::ThreadSlab*
    slab(size_t worker)
    {
        return registry_.registerThread(worker);
    }

  private:
    Registry registry_;
    FlightRecorder flight_;
    MapMetricIds map_;
    SchedMetricIds sched_;
    CheckpointMetricIds checkpoint_;
    ServeMetricIds serve_;
};

} // namespace mg::obs
