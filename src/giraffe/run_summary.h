/**
 * @file
 * Machine-readable run summaries: one JSON document per run kind (proxy,
 * parent, checkpointed), all built on obs::JsonWriter so every tool in the
 * repo emits the same shapes.  Every summary carries the failure-isolation
 * counters (retries, quarantined reads, batch failures, watchdog cancels)
 * — a run that degraded or dropped work must say so in the same place a
 * healthy run reports zeroes.  The tools' shared end-of-run reports
 * (fault-site metrics, watchdog cancellations) live here too.
 */
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "giraffe/checkpoint_run.h"
#include "giraffe/parent.h"
#include "giraffe/proxy.h"
#include "io/mgz.h"
#include "obs/metrics.h"
#include "sched/watchdog.h"

namespace mg::giraffe {

/**
 * Proxy (miniGiraffe) run summary.  When `index` is given the summary
 * carries an "index" block: load mode, load seconds,
 * per-section arena bytes, and the resident-vs-reserved footprint.
 */
std::string summaryJson(const ProxyOutputs& outputs,
                        const ProxyParams& params,
                        const io::IndexLoadInfo* index = nullptr);

/** Parent-emulator run summary (same optional index block). */
std::string summaryJson(const ParentOutputs& outputs,
                        const ParentParams& params,
                        const io::IndexLoadInfo* index = nullptr);

/** Checkpointed-run summary. */
std::string summaryJson(const CheckpointRunResult& result,
                        const CheckpointRunParams& params);

/** Per-site fault counters (hits and fires), appended to a tool's final
 *  metrics snapshot: the set of armed sites is only known at the end. */
std::vector<obs::MetricValue> faultExtras();

/** Print one watchdog cancellation to stdout with the flight-recorder
 *  reads that were on the operating table when the stall was detected;
 *  `read_name` names a read by its input index. */
void printWatchdogEvent(
    const sched::WatchdogEvent& event,
    const std::function<std::string(uint64_t)>& read_name);

} // namespace mg::giraffe
