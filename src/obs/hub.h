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

#include <cstddef>
#include <string>
#include <vector>

#include <array>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"

namespace mg::obs {

/** Mapper funnel + GBWT cache ids (incremented via MapperState). */
struct MapMetricIds
{
    CounterId reads;
    CounterId seeds;
    CounterId clustersFormed;
    CounterId clustersProcessed;
    CounterId extensionsAttempted;
    CounterId extensionsAborted;
    CounterId extensionsPrefiltered;
    CounterId extensionsCovered;
    CounterId extensionsEmitted;
    CounterId rescueAttempts;
    CounterId rescueHits;
    CounterId degradedDeadline;
    CounterId degradedStepCap;
    CounterId degradedLookupCap;
    CounterId degradedWatchdog;
    HistogramId readLatency;
    CounterId gbwtLookups;
    CounterId gbwtHits;
    CounterId gbwtDecodes;
    CounterId gbwtRehashes;
    CounterId gbwtProbes;
    CounterId gbwtRecycles;
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
