/**
 * @file
 * End-to-end request tracing for the serving stack.  Every traced request
 * carries a 64-bit trace id (minted by the client, or by the daemon for
 * untagged requests that win the head-sampling coin flip) and accumulates
 * timestamped spans — accept, decode, queue-wait, generation-pin, the
 * mapping stages (seed/cluster/extend/gaf-emit, aggregated across the
 * request's reads), and the response write — in a TraceContext that rides
 * the request through reader and worker threads.
 *
 * The hot path records spans into the request's own context (plain vector,
 * no synchronization); a finished context is committed once per request
 * into a per-worker lane buffer (single-writer append, lock only on the
 * shared control lane).  On top of head sampling, a tail-based "always
 * keep the slowest N" exemplar ring retains full span trees for the worst
 * requests even at 1% sampling, and a per-stage slowest-exemplar table
 * pairs each stage histogram with the trace id that dominated it.
 *
 * Exports: a Chrome-trace JSON (one track per worker plus a reader track,
 * flow arrows following a trace id across threads — loads in Perfetto),
 * and per-exemplar `.mgtrace` dumps validated by mg_verify.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "perf/profiler.h"

namespace mg::obs {

/** Stage of a request's life covered by one span. */
enum class SpanStage : uint8_t
{
    Accept = 0,    // frame read off the socket
    Decode,        // wire decode
    QueueWait,     // admitted -> popped by a worker
    GenerationPin, // index generation pin (the pin mutex)
    Seed,          // minimizer seeding, aggregated over the reads
    Cluster,       // seed clustering, aggregated
    Extend,        // extension scoring loop, aggregated
    GafEmit,       // alignment post-process + GAF formatting, aggregated
    Write,         // response encode + socket write
};

constexpr size_t kSpanStages = 9;

const char* spanStageName(SpanStage stage);

/** One timed span on one display track ("lane"). */
struct Span
{
    SpanStage stage = SpanStage::Accept;
    uint32_t lane = 0;
    uint64_t beginNanos = 0;
    uint64_t endNanos = 0;
};

/**
 * Per-request accumulator for the mapping stages, fed by the mapper's
 * stage hook read by read (the session's GAF formatting counts as Align).
 * Observation only: attaching one must not change mapping output.
 */
struct StageAccumulator
{
    std::array<uint64_t, perf::kStages> nanos{};

    void
    add(perf::Stage stage, uint64_t ns)
    {
        nanos[static_cast<size_t>(stage)] += ns;
    }
};

/** The request span each accumulated mapping stage is drawn as, in
 *  pipeline order; the nested Extend and ScoreExtensions get none. */
inline constexpr std::pair<perf::Stage, SpanStage> kMapSpans[] = {
    { perf::Stage::FindSeeds, SpanStage::Seed },
    { perf::Stage::ClusterSeeds, SpanStage::Cluster },
    { perf::Stage::ProcessUntilThresholdC, SpanStage::Extend },
    { perf::Stage::Align, SpanStage::GafEmit },
};

/** A traced request's identity and span list, carried with the request. */
struct TraceContext
{
    uint64_t traceId = 0;
    uint64_t beginNanos = 0;
    uint64_t endNanos = 0;
    uint64_t generation = 0;
    std::string tenant;
    /** Final verdict: ok / retry_after / deadline_shed / drain_shed /
     *  error / shutting_down. */
    std::string disposition;
    std::vector<Span> spans;

    void
    span(SpanStage stage, uint32_t lane, uint64_t begin_nanos,
         uint64_t end_nanos)
    {
        spans.push_back(Span{stage, lane, begin_nanos, end_nanos});
    }
};

/** "0x" + lowercase hex, the one rendering of a trace id everywhere. */
std::string traceIdHex(uint64_t trace_id);

/** Inverse of traceIdHex; 0 when the text is not a valid hex id. */
uint64_t parseTraceIdHex(const std::string& text);

class RequestTracer
{
  public:
    struct Params
    {
        /** Worker lanes; one extra shared control lane is added for
         *  reader-thread commits (sheds and errors that never reach a
         *  worker). */
        size_t lanes = 1;
        /** Head-sampling probability for untagged requests, [0, 1]. */
        double sampleRate = 0.0;
        /** Slowest-N exemplar ring size. */
        size_t exemplars = 8;
        /** Per-lane committed-span capacity; spans past it are counted
         *  as dropped, bounding memory on long runs. */
        size_t maxSpansPerLane = 1 << 16;
        /** Mixes into minted ids so concurrent daemons do not collide. */
        uint64_t seed = 0x9E3779B97F4A7C15ull;
    };

    explicit RequestTracer(Params params);

    const Params& params() const { return params_; }

    /** Lane index reader threads commit on (mutex-guarded). */
    size_t controlLane() const { return params_.lanes; }

    /** Mint a nonzero, well-mixed trace id (thread-safe). */
    uint64_t mint();

    /** Head-sampling coin flip for an untagged request (thread-safe,
     *  deterministic in arrival order for a given seed). */
    bool sampleHead();

    /**
     * Commit a finished request's spans.  `lane` must be the calling
     * thread's own lane (single-writer append) or controlLane() (any
     * thread, serialized internally).  Also feeds the slowest-N exemplar
     * ring and the per-stage exemplar table.
     */
    void commit(size_t lane, TraceContext&& ctx);

    // ---------------------------------------------------- live introspection

    /** Mark `lane` as serving `trace_id` since `begin_nanos` (atomics;
     *  only the lane's owner writes). */
    void beginInFlight(size_t lane, uint64_t trace_id, uint64_t begin_nanos);
    void endInFlight(size_t lane);

    struct InFlightEntry
    {
        size_t lane = 0;
        uint64_t traceId = 0;
        uint64_t beginNanos = 0;
    };

    /** Currently in-flight traced requests, oldest first. */
    std::vector<InFlightEntry> inFlight() const;

    // ------------------------------------------------------------- exemplars

    struct Exemplar
    {
        TraceContext ctx;
        uint64_t totalNanos = 0;
    };

    /** Slowest-first copy of the exemplar ring. */
    std::vector<Exemplar> exemplars() const;

    struct StageExemplar
    {
        uint64_t traceId = 0;
        uint64_t nanos = 0;
    };

    /** Slowest trace id seen per stage (traceId 0 when none yet). */
    std::array<StageExemplar, kSpanStages> stageExemplars() const;

    // ------------------------------------------------------------ accounting

    uint64_t committedTotal() const;
    uint64_t droppedSpans() const;

    // --------------------------------------------------------------- exports

    /**
     * Chrome-trace JSON of every committed span: one track per worker
     * plus the reader/control track, flow arrows ("s"/"f" pairs keyed by
     * trace id) wherever a request's spans cross lanes.  Call after the
     * span writers have stopped (the daemon exports post-join).
     */
    void writeChromeTrace(const std::string& path,
                          const std::string& process_name) const;

  private:
    struct StoredSpan
    {
        uint64_t traceId = 0;
        Span span;
    };

    struct Lane
    {
        std::vector<StoredSpan> spans;
        std::mutex mutex; // taken only for the shared control lane
        alignas(64) std::atomic<uint64_t> inFlightId{0};
        std::atomic<uint64_t> inFlightBegin{0};
    };

    void commitLocked(Lane& lane, const TraceContext& ctx);
    void noteExemplar(const TraceContext& ctx);

    Params params_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::atomic<uint64_t> mintCounter_{0};
    std::atomic<uint64_t> sampleCounter_{0};
    std::atomic<uint64_t> committed_{0};
    std::atomic<uint64_t> droppedSpans_{0};

    mutable std::mutex exemplarMutex_;
    std::vector<Exemplar> exemplars_; // slowest-first, bounded
    std::array<StageExemplar, kSpanStages> stageExemplars_{};
};

/**
 * Write one slow-request `.mgtrace` dump: the span tree, the request's
 * disposition, and the flight-recorder context captured at dump time.
 * Validated by `mg_verify`.
 */
void writeTraceDump(const std::string& path,
                    const RequestTracer::Exemplar& exemplar,
                    const std::vector<FlightEntry>& flight);

} // namespace mg::obs
