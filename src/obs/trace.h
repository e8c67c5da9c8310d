/**
 * @file
 * Chrome trace-event export: the one writer of the JSON Array-format
 * trace that chrome://tracing and Perfetto load directly.  Two producers
 * feed it: the profiler's in-memory region log plus run-level instant
 * events (watchdog cancellations, quarantines) — the paper's Fig. 2
 * per-thread timeline as an interactive artifact — and the daemon's
 * RequestTracer (request spans with flow arrows across threads).
 *
 * Schema notes: "M" process_name and thread_name metadata label the
 * process and its tracks; then "X" (complete) events with ts/dur, "i"
 * (thread-scoped instant) events and "s"/"f" flow pairs, all in pid 1
 * with timestamps in microseconds relative to the earliest event
 * (Perfetto's UI prefers small timestamps).
 */
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "perf/profiler.h"

namespace mg::obs {

/** One trace event; names and categories must outlive the write. */
struct TraceEvent
{
    /** 'X' complete, 'i' instant, 's'/'f' flow start/end. */
    char phase = 'X';
    std::string_view name;
    std::string_view category;
    uint64_t thread = 0;
    uint64_t beginNanos = 0;
    /** End of an 'X' event. */
    uint64_t endNanos = 0;
    /** Request trace id: an 'X' event's args.trace, a flow's id
     *  (0 = none). */
    uint64_t traceId = 0;
};

/** A whole trace: the process label, named tracks and the events. */
struct ChromeTrace
{
    std::string processName;
    /** (tid, track name), written in this order. */
    std::vector<std::pair<uint64_t, std::string>> threads;
    std::vector<TraceEvent> events;
};

/** Write `trace` to `path`.  Throws util::Error on I/O failure. */
void writeChromeTrace(const std::string& path, const ChromeTrace& trace);

/** A point event to overlay on the timeline (e.g. a watchdog cancel). */
struct TraceInstant
{
    std::string name;
    size_t thread = 0;
    uint64_t atNanos = 0;
};

/**
 * Write the profiler's region log plus `instants` to `path`, one track
 * per thread that recorded either.  `process_name` labels pid 1 in the
 * trace viewer.
 */
void writeChromeTrace(const std::string& path,
                      const perf::Profiler& profiler,
                      const std::vector<TraceInstant>& instants,
                      const std::string& process_name = "minigiraffe");

} // namespace mg::obs
