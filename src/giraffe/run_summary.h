/**
 * @file
 * Machine-readable run summaries: one JSON document per run kind (proxy,
 * parent, checkpointed), all built on obs::JsonWriter so every tool in the
 * repo emits the same shapes.  Every summary carries the failure-isolation
 * counters (retries, quarantined reads, batch failures, watchdog cancels)
 * — a run that degraded or dropped work must say so in the same place a
 * healthy run reports zeroes.
 */
#pragma once

#include <string>

#include "giraffe/checkpoint_run.h"
#include "giraffe/parent.h"
#include "giraffe/proxy.h"
#include "io/mgz.h"

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

} // namespace mg::giraffe
