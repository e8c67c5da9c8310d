#include "obs/request_trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "obs/json.h"
#include "obs/trace.h"
#include "util/common.h"

namespace mg::obs {

const char*
spanStageName(SpanStage stage)
{
    switch (stage) {
    case SpanStage::Accept: return "accept";
    case SpanStage::Decode: return "decode";
    case SpanStage::QueueWait: return "queue_wait";
    case SpanStage::GenerationPin: return "generation_pin";
    case SpanStage::Seed: return "seed";
    case SpanStage::Cluster: return "cluster";
    case SpanStage::Extend: return "extend";
    case SpanStage::GafEmit: return "gaf_emit";
    case SpanStage::Write: return "write";
    }
    return "?";
}

std::string
traceIdHex(uint64_t trace_id)
{
    char buf[2 + 16 + 1];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, trace_id);
    return buf;
}

uint64_t
parseTraceIdHex(const std::string& text)
{
    if (text.size() != 18 || text[0] != '0' || text[1] != 'x') {
        return 0;
    }
    uint64_t value = 0;
    for (size_t i = 2; i < text.size(); ++i) {
        char c = text[i];
        uint64_t digit;
        if (c >= '0' && c <= '9') {
            digit = static_cast<uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            digit = static_cast<uint64_t>(c - 'a') + 10;
        } else {
            return 0;
        }
        value = (value << 4) | digit;
    }
    return value;
}

namespace {

/** splitmix64: the id mixer — full-period, well-distributed, cheap. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace

RequestTracer::RequestTracer(Params params) : params_(params)
{
    MG_CHECK(params_.lanes > 0, "request tracer needs at least one lane");
    MG_CHECK(params_.sampleRate >= 0.0 && params_.sampleRate <= 1.0,
             "trace sample rate must be in [0, 1]");
    lanes_.reserve(params_.lanes + 1);
    for (size_t i = 0; i < params_.lanes + 1; ++i) {
        lanes_.push_back(std::make_unique<Lane>());
    }
}

uint64_t
RequestTracer::mint()
{
    uint64_t n = mintCounter_.fetch_add(1, std::memory_order_relaxed);
    uint64_t id = mix64(params_.seed ^ (n + 1));
    return id == 0 ? 1 : id;
}

bool
RequestTracer::sampleHead()
{
    if (params_.sampleRate <= 0.0) {
        return false;
    }
    if (params_.sampleRate >= 1.0) {
        return true;
    }
    uint64_t n = sampleCounter_.fetch_add(1, std::memory_order_relaxed);
    // Deterministic in arrival order for a given seed: hash the arrival
    // index and compare against the rate's fixed-point threshold.
    uint64_t h = mix64(params_.seed ^ ~n);
    const double threshold =
        params_.sampleRate * 18446744073709551616.0; // 2^64
    return static_cast<double>(h) < threshold;
}

void
RequestTracer::commitLocked(Lane& lane, const TraceContext& ctx)
{
    for (const Span& span : ctx.spans) {
        if (lane.spans.size() >= params_.maxSpansPerLane) {
            droppedSpans_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        lane.spans.push_back(StoredSpan{ctx.traceId, span});
    }
}

void
RequestTracer::commit(size_t lane_index, TraceContext&& ctx)
{
    MG_ASSERT(lane_index < lanes_.size());
    if (ctx.traceId == 0) {
        return;
    }
    Lane& lane = *lanes_[lane_index];
    if (lane_index == controlLane()) {
        std::lock_guard<std::mutex> lock(lane.mutex);
        commitLocked(lane, ctx);
    } else {
        commitLocked(lane, ctx);
    }
    committed_.fetch_add(1, std::memory_order_relaxed);
    noteExemplar(ctx);
}

void
RequestTracer::noteExemplar(const TraceContext& ctx)
{
    const uint64_t total =
        ctx.endNanos >= ctx.beginNanos ? ctx.endNanos - ctx.beginNanos : 0;
    std::lock_guard<std::mutex> lock(exemplarMutex_);
    for (const Span& span : ctx.spans) {
        const uint64_t nanos = span.endNanos >= span.beginNanos
                                   ? span.endNanos - span.beginNanos
                                   : 0;
        StageExemplar& best =
            stageExemplars_[static_cast<size_t>(span.stage)];
        if (nanos > best.nanos || best.traceId == 0) {
            best.traceId = ctx.traceId;
            best.nanos = nanos;
        }
    }
    if (params_.exemplars == 0) {
        return;
    }
    if (exemplars_.size() >= params_.exemplars &&
        total <= exemplars_.back().totalNanos) {
        return;
    }
    Exemplar exemplar;
    exemplar.ctx = ctx;
    exemplar.totalNanos = total;
    auto at = std::upper_bound(
        exemplars_.begin(), exemplars_.end(), total,
        [](uint64_t t, const Exemplar& e) { return t > e.totalNanos; });
    exemplars_.insert(at, std::move(exemplar));
    if (exemplars_.size() > params_.exemplars) {
        exemplars_.pop_back();
    }
}

void
RequestTracer::beginInFlight(size_t lane, uint64_t trace_id,
                             uint64_t begin_nanos)
{
    MG_ASSERT(lane < lanes_.size());
    lanes_[lane]->inFlightBegin.store(begin_nanos,
                                      std::memory_order_relaxed);
    lanes_[lane]->inFlightId.store(trace_id, std::memory_order_release);
}

void
RequestTracer::endInFlight(size_t lane)
{
    MG_ASSERT(lane < lanes_.size());
    lanes_[lane]->inFlightId.store(0, std::memory_order_release);
}

std::vector<RequestTracer::InFlightEntry>
RequestTracer::inFlight() const
{
    std::vector<InFlightEntry> out;
    for (size_t i = 0; i < lanes_.size(); ++i) {
        uint64_t id = lanes_[i]->inFlightId.load(std::memory_order_acquire);
        if (id == 0) {
            continue;
        }
        InFlightEntry entry;
        entry.lane = i;
        entry.traceId = id;
        entry.beginNanos =
            lanes_[i]->inFlightBegin.load(std::memory_order_relaxed);
        out.push_back(entry);
    }
    std::sort(out.begin(), out.end(),
              [](const InFlightEntry& a, const InFlightEntry& b) {
                  return a.beginNanos < b.beginNanos;
              });
    return out;
}

std::vector<RequestTracer::Exemplar>
RequestTracer::exemplars() const
{
    std::lock_guard<std::mutex> lock(exemplarMutex_);
    return exemplars_;
}

std::array<RequestTracer::StageExemplar, kSpanStages>
RequestTracer::stageExemplars() const
{
    std::lock_guard<std::mutex> lock(exemplarMutex_);
    return stageExemplars_;
}

uint64_t
RequestTracer::committedTotal() const
{
    return committed_.load(std::memory_order_relaxed);
}

uint64_t
RequestTracer::droppedSpans() const
{
    return droppedSpans_.load(std::memory_order_relaxed);
}

// ------------------------------------------------------------ Chrome trace

void
RequestTracer::writeChromeTrace(const std::string& path,
                                const std::string& process_name) const
{
    // Gather every committed span (writers must have stopped).
    std::vector<StoredSpan> all;
    for (const std::unique_ptr<Lane>& lane : lanes_) {
        all.insert(all.end(), lane->spans.begin(), lane->spans.end());
    }
    ChromeTrace trace;
    trace.processName = process_name;
    for (size_t lane = 0; lane < lanes_.size(); ++lane) {
        trace.threads.emplace_back(lane + 1,
                                   lane == params_.lanes
                                       ? std::string("reader")
                                       : "worker " + std::to_string(lane));
    }
    for (const StoredSpan& stored : all) {
        const Span& span = stored.span;
        trace.events.push_back(TraceEvent{
            'X', spanStageName(span.stage), "request", span.lane + 1u,
            span.beginNanos, span.endNanos, stored.traceId });
    }

    // Flow arrows: for every trace whose spans sit on more than one lane,
    // start the flow at the end of its last reader-lane span and finish at
    // the begin of its first span on each other lane.
    std::vector<StoredSpan> sorted = all;
    std::sort(sorted.begin(), sorted.end(),
              [](const StoredSpan& a, const StoredSpan& b) {
                  if (a.traceId != b.traceId) {
                      return a.traceId < b.traceId;
                  }
                  return a.span.beginNanos < b.span.beginNanos;
              });
    size_t i = 0;
    while (i < sorted.size()) {
        size_t j = i;
        while (j < sorted.size() &&
               sorted[j].traceId == sorted[i].traceId) {
            ++j;
        }
        const StoredSpan* source = nullptr; // last reader-lane span
        for (size_t k = i; k < j; ++k) {
            if (sorted[k].span.lane == params_.lanes) {
                source = &sorted[k];
            }
        }
        if (source != nullptr) {
            for (size_t k = i; k < j; ++k) {
                const Span& span = sorted[k].span;
                if (span.lane == params_.lanes ||
                    span.beginNanos < source->span.endNanos) {
                    continue;
                }
                trace.events.push_back(TraceEvent{
                    's', "request", "flow", source->span.lane + 1u,
                    source->span.endNanos, 0, sorted[i].traceId });
                trace.events.push_back(TraceEvent{
                    'f', "request", "flow", span.lane + 1u,
                    span.beginNanos, 0, sorted[k].traceId });
                break; // one arrow per trace: reader -> first worker span
            }
        }
        i = j;
    }
    obs::writeChromeTrace(path, trace);
}

// ------------------------------------------------------------ mgtrace dump

void
writeTraceDump(const std::string& path,
               const RequestTracer::Exemplar& exemplar,
               const std::vector<FlightEntry>& flight)
{
    const TraceContext& ctx = exemplar.ctx;
    std::vector<Span> spans = ctx.spans;
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
        if (a.beginNanos != b.beginNanos) {
            return a.beginNanos < b.beginNanos;
        }
        return a.endNanos > b.endNanos;
    });

    JsonWriter w;
    w.beginObject();
    w.field("minigiraffe_trace", 1);
    w.field("trace_id", traceIdHex(ctx.traceId));
    w.field("total_ns", exemplar.totalNanos);
    w.field("begin_ns", ctx.beginNanos);
    w.field("end_ns", ctx.endNanos);
    w.field("tenant", ctx.tenant);
    w.field("generation", ctx.generation);
    w.field("disposition",
            ctx.disposition.empty() ? std::string("ok") : ctx.disposition);
    w.key("spans").beginArray();
    for (const Span& span : spans) {
        w.beginObject();
        w.field("stage", spanStageName(span.stage));
        w.field("lane", static_cast<uint64_t>(span.lane));
        w.field("begin_ns", span.beginNanos);
        w.field("end_ns", span.endNanos);
        w.endObject();
    }
    w.endArray();
    w.key("flight").beginArray();
    for (const FlightEntry& entry : flight) {
        w.beginObject();
        w.field("read_index", entry.readIndex);
        w.field("stage", stageName(entry.stage));
        w.field("stage_enter_ns", entry.stageEnterNanos);
        w.field("trace_id", traceIdHex(entry.traceId));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    w.writeFile(path);
}

} // namespace mg::obs
