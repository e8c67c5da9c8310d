#include "obs/trace.h"

#include <algorithm>
#include <set>

#include "obs/json.h"
#include "obs/request_trace.h"

namespace mg::obs {

void
writeChromeTrace(const std::string& path, const ChromeTrace& trace)
{
    // Rebase timestamps to the earliest event so the viewer opens at t=0.
    uint64_t origin = UINT64_MAX;
    for (const TraceEvent& event : trace.events) {
        origin = std::min(origin, event.beginNanos);
    }
    if (trace.events.empty()) {
        origin = 0;
    }
    auto micros = [origin](uint64_t nanos) {
        return static_cast<double>(nanos - origin) * 1e-3;
    };

    JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.key("traceEvents").beginArray();

    w.beginObject();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", uint64_t{1});
    w.key("args").beginObject().field("name", trace.processName).endObject();
    w.endObject();
    for (const auto& [tid, name] : trace.threads) {
        w.beginObject();
        w.field("name", "thread_name");
        w.field("ph", "M");
        w.field("pid", uint64_t{1});
        w.field("tid", tid);
        w.key("args").beginObject().field("name", name).endObject();
        w.endObject();
    }

    for (const TraceEvent& event : trace.events) {
        w.beginObject();
        w.field("name", event.name);
        w.field("cat", event.category);
        w.field("ph", std::string_view(&event.phase, 1));
        if (event.phase == 'i') {
            w.field("s", "t"); // thread-scoped instant
        } else if (event.phase == 'f') {
            w.field("bp", "e"); // bind to the enclosing slice
        }
        if (event.phase == 's' || event.phase == 'f') {
            w.field("id", traceIdHex(event.traceId));
        }
        w.field("pid", uint64_t{1});
        w.field("tid", event.thread);
        w.field("ts", micros(event.beginNanos));
        if (event.phase == 'X') {
            w.field("dur", static_cast<double>(event.endNanos -
                                               event.beginNanos) *
                               1e-3);
            if (event.traceId != 0) {
                w.key("args")
                    .beginObject()
                    .field("trace", traceIdHex(event.traceId))
                    .endObject();
            }
        }
        w.endObject();
    }

    w.endArray();
    w.field("displayTimeUnit", "ms");
    w.endObject();
    w.writeFile(path);
}

void
writeChromeTrace(const std::string& path, const perf::Profiler& profiler,
                 const std::vector<TraceInstant>& instants,
                 const std::string& process_name)
{
    ChromeTrace trace;
    trace.processName = process_name;
    std::set<size_t> threads;
    profiler.forEachRecord(
        [&](size_t thread, const perf::RegionRecord& rec) {
            threads.insert(thread);
            trace.events.push_back(TraceEvent{
                'X', perf::regionName(rec.stage), "region", thread,
                rec.startNanos, rec.endNanos, 0 });
        });
    for (const TraceInstant& instant : instants) {
        threads.insert(instant.thread);
        trace.events.push_back(TraceEvent{ 'i', instant.name, "event",
                                           instant.thread, instant.atNanos,
                                           0, 0 });
    }
    for (size_t thread : threads) {
        trace.threads.emplace_back(thread,
                                   "worker " + std::to_string(thread));
    }
    writeChromeTrace(path, trace);
}

} // namespace mg::obs
