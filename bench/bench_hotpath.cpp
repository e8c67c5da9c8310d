/**
 * @file
 * Hot-path benchmark harness (perf trajectory anchor).  Measures the
 * seed-and-extend kernel the paper identifies as memory-bound: single-thread
 * mapping throughput (reads/sec), heap bytes allocated per read and per
 * steady-state extension (via a global operator-new counter), and the
 * CachedGBWT hit rate, on input-set analogs A and B, plus the SWAR match
 * kernel's speedup over its scalar oracle.  Emits `BENCH_hotpath.json`,
 * the repo's one hot-path record: this run's numbers and a `trajectory`
 * array of extends/sec rows (with the commit, host, repetitions and
 * min-max spread behind each), carried over from the previous record with
 * this run appended, so every later change can compare against a recorded
 * baseline.
 *
 * Modes:
 *   bench_hotpath [--scale=S] [--out=PATH] [--baseline=PATH]
 *       [--label=TEXT] [gbench flags]                       full run + JSON
 *   bench_hotpath --smoke [--scale=S]                       quick CTest run
 *   bench_hotpath --guard=PATH                              perf-guard run
 *
 * The smoke mode (CTest label `perf-smoke`) enforces machine-independent
 * invariants of the optimized kernel — zero heap allocations in the
 * steady-state extend loop and in the seed-and-cluster front end, fewer
 * allocations per mapped read than before the front end reused its
 * buffers, and a per-read CachedGBWT that never decodes the same record
 * twice within one read — and runs one quick throughput repetition so
 * gross (>20%) kernel regressions surface in CI timing logs.
 *
 * The guard mode (also perf-smoke) protects the match kernel: the SWAR
 * loop's speedup over the scalar oracle at 32- and 64-base spans (the
 * span regime of 150-bp reads over short bubble-chain nodes) is
 * re-measured in-process (machine speed cancels) and must stay within
 * 15% of the ratio committed in the record.
 *
 * The obs-guard mode (bench_hotpath --guard-obs=PATH, ctest
 * perf_guard_obs) protects the telemetry layer's "pay only a pointer
 * test" promise: it times the mapping kernel with live metrics off and on
 * (same process, A and B analogs) and fails if metrics cost more than 2%
 * of throughput.
 */
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common.h"
#include "io/file.h"
#include "machine/host.h"
#include "obs/hub.h"
#include "obs/json.h"
#include "stats/latency.h"
#include "util/timer.h"

// ------------------------------------------------------------------------
// Global allocation counter: every operator new/delete in the process is
// counted, so a delta around a measured region gives exact heap traffic.

namespace {

std::atomic<uint64_t> g_alloc_bytes{0};
std::atomic<uint64_t> g_alloc_calls{0};

struct AllocSnapshot
{
    uint64_t bytes = 0;
    uint64_t calls = 0;
};

AllocSnapshot
allocNow()
{
    return {g_alloc_bytes.load(std::memory_order_relaxed),
            g_alloc_calls.load(std::memory_order_relaxed)};
}

AllocSnapshot
allocDelta(const AllocSnapshot& since)
{
    AllocSnapshot now = allocNow();
    return {now.bytes - since.bytes, now.calls - since.calls};
}

void*
countedAlloc(std::size_t size)
{
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) {
        return p;
    }
    throw std::bad_alloc();
}

} // namespace

void* operator new(std::size_t size) { return countedAlloc(size); }
void* operator new[](std::size_t size) { return countedAlloc(size); }
void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}
void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void
operator delete(void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, const std::nothrow_t&) noexcept
{
    std::free(p);
}

// ------------------------------------------------------------------------

namespace mg::bench {
namespace {

double g_scale = 0.1;

/** Timed passes behind the committed record's numbers; the extend rate
 *  and the match-run speedups are medians over kRecordSamples runs. */
constexpr int kRecordMapPasses = 3;
constexpr int kRecordExtendPasses = 200;
constexpr int kRecordSamples = 5;

/** One prepared workload: world + seed capture, built once per input set. */
struct Workload
{
    std::unique_ptr<World> world;
    io::SeedCapture capture;
};

const Workload&
workload(const std::string& input_set)
{
    static std::vector<std::pair<std::string, Workload>> cache;
    for (const auto& [name, wl] : cache) {
        if (name == input_set) {
            return wl;
        }
    }
    Workload wl;
    wl.world = buildWorld(input_set, g_scale);
    wl.capture =
        wl.world->parent().capturePreprocessing(wl.world->set.reads);
    cache.emplace_back(input_set, std::move(wl));
    return cache.back().second;
}

/** Result of one measured mapping pass over a whole capture. */
struct PassResult
{
    double readsPerSec = 0.0;
    double bytesPerRead = 0.0;
    double allocsPerRead = 0.0;
    double hitRate = 0.0;
    /** Per-read latency tail (nanoseconds), from the mapper's histogram. */
    double p50Nanos = 0.0;
    double p99Nanos = 0.0;
    double p999Nanos = 0.0;
};

/**
 * Map every read in the capture `reps` times with one reused MapperState
 * (warm-up pass excluded from both the clock and the allocation counter).
 * When `hub` is set the measured loop runs with live metrics attached —
 * per-read funnel increments plus one flush per pass, the same cadence a
 * batch scheduler produces — so the obs guard can price the telemetry.
 *
 * When `trace_every` is N > 0, one read in N maps with a StageAccumulator
 * bound (the per-request span context a traced daemon request carries;
 * untraced reads pay the same null pointer test the daemon's do) — so the
 * trace guard can price request tracing at a head-sampling rate.
 */
PassResult
measureMapping(const Workload& wl, int reps, obs::Hub* hub = nullptr,
               int trace_every = 0)
{
    map::Mapper mapper(wl.world->graph(), wl.world->gbwt(),
                       wl.world->minimizers, wl.world->distance,
                       map::MapperParams());
    auto state = mapper.makeState();
    const auto& entries = wl.capture.entries;
    // Warm-up: touches every read once so caches/scratch reach capacity.
    for (const auto& entry : entries) {
        mapper.mapFromSeeds(entry.read, entry.seeds, *state);
    }
    if (hub != nullptr) { // bind after warm-up: measure steady state only
        state->metrics = hub->slab(0);
        state->metricIds = &hub->map();
    }
    state->tally = map::Tally{}; // drop warm-up counts and samples
    obs::StageAccumulator trace_accum;
    size_t read_index = 0;
    AllocSnapshot before = allocNow();
    util::WallTimer timer;
    for (int rep = 0; rep < reps; ++rep) {
        for (const auto& entry : entries) {
            if (trace_every > 0) {
                state->stageTrace =
                    read_index % static_cast<size_t>(trace_every) == 0
                        ? &trace_accum
                        : nullptr;
                ++read_index;
            }
            benchmark::DoNotOptimize(
                mapper.mapFromSeeds(entry.read, entry.seeds, *state));
        }
        if (hub != nullptr) {
            state->flushMetrics();
        }
    }
    state->stageTrace = nullptr;
    double seconds = timer.seconds();
    AllocSnapshot delta = allocDelta(before);
    const gbwt::CacheStats total = state->totalStats();

    PassResult out;
    double reads =
        static_cast<double>(entries.size()) * static_cast<double>(reps);
    out.readsPerSec = reads / seconds;
    out.bytesPerRead = static_cast<double>(delta.bytes) / reads;
    out.allocsPerRead = static_cast<double>(delta.calls) / reads;
    out.hitRate = total.hitRate();
    const stats::LatencyHistogram& latency = state->tally.latency;
    out.p50Nanos = latency.p50();
    out.p99Nanos = latency.p99();
    out.p999Nanos = latency.p999();
    return out;
}

/**
 * The steady-state extend loop in isolation: repeatedly extend a fixed
 * sample of seeds with a warm cache.  The optimized kernel must allocate
 * nothing here (the acceptance criterion of the hot-path overhaul).
 */
struct ExtendSample
{
    const io::ReadWithSeeds* entry = nullptr;
    size_t seedIndex = 0;
    std::string oriented; // the orientation the seed was found on
};

std::vector<ExtendSample>
pickExtendSamples(const Workload& wl, size_t max_samples)
{
    std::vector<ExtendSample> samples;
    for (const auto& entry : wl.capture.entries) {
        if (samples.size() >= max_samples) {
            break;
        }
        for (size_t s = 0; s < entry.seeds.size(); ++s) {
            if (samples.size() >= max_samples) {
                break;
            }
            ExtendSample sample;
            sample.entry = &entry;
            sample.seedIndex = s;
            sample.oriented = entry.seeds[s].onReverseRead
                ? util::reverseComplement(entry.read.sequence)
                : entry.read.sequence;
            samples.push_back(std::move(sample));
        }
    }
    return samples;
}

struct ExtendResult
{
    double extendsPerSec = 0.0;
    double bytesPerExtend = 0.0;
    double allocsPerExtend = 0.0;
    /** 32-base chunks examined per extension. */
    double wordsPerExtend = 0.0;
};

ExtendResult
measureExtend(const Workload& wl, int reps)
{
    map::Extender extender(wl.world->graph(), map::MapperParams().extend);
    gbwt::CachedGbwt cache(wl.world->gbwt());
    map::ExtendScratch scratch;
    std::vector<ExtendSample> samples = pickExtendSamples(wl, 256);
    MG_ASSERT(!samples.empty());
    // Warm-up: every sample extended once (cache fills, scratch spills).
    for (const ExtendSample& sample : samples) {
        extender.extendSeed(sample.entry->seeds[sample.seedIndex],
                            sample.oriented, cache, scratch);
    }
    scratch.wordsCompared = 0;
    AllocSnapshot before = allocNow();
    util::WallTimer timer;
    for (int rep = 0; rep < reps; ++rep) {
        for (const ExtendSample& sample : samples) {
            benchmark::DoNotOptimize(extender.extendSeed(
                sample.entry->seeds[sample.seedIndex], sample.oriented,
                cache, scratch));
        }
    }
    double seconds = timer.seconds();
    AllocSnapshot delta = allocDelta(before);
    double extends =
        static_cast<double>(samples.size()) * static_cast<double>(reps);
    ExtendResult out;
    out.extendsPerSec = extends / seconds;
    out.bytesPerExtend = static_cast<double>(delta.bytes) / extends;
    out.allocsPerExtend = static_cast<double>(delta.calls) / extends;
    out.wordsPerExtend = static_cast<double>(scratch.wordsCompared) / extends;
    return out;
}

/**
 * Heap allocations per read inside the seed-and-cluster front end
 * (findSeedsInto + clusterSeedsInto into a worker's seed and cluster
 * buffers), at steady state: one warm-up pass over the capture sizes
 * every reused buffer, then a counted pass over the same reads.
 */
double
frontEndAllocsPerRead(const Workload& wl)
{
    map::Mapper mapper(wl.world->graph(), wl.world->gbwt(),
                       wl.world->minimizers, wl.world->distance,
                       map::MapperParams());
    auto state = mapper.makeState();
    const map::MapperParams& params = mapper.params();
    auto pass = [&] {
        for (const auto& entry : wl.capture.entries) {
            map::findSeedsInto(wl.world->minimizers, entry.read,
                               params.seeding, state->seeds);
            map::clusterSeedsInto(wl.world->graph(), wl.world->distance,
                                  state->seeds, params.cluster,
                                  state->clusters);
        }
    };
    pass();
    AllocSnapshot before = allocNow();
    pass();
    return static_cast<double>(allocDelta(before).calls) /
           static_cast<double>(wl.capture.entries.size());
}

// ------------------------------------------------------------------ gbench

void
BM_MapFromSeeds(benchmark::State& state, const char* input_set)
{
    const Workload& wl = workload(input_set);
    map::Mapper mapper(wl.world->graph(), wl.world->gbwt(),
                       wl.world->minimizers, wl.world->distance,
                       map::MapperParams());
    auto mapper_state = mapper.makeState();
    const auto& entries = wl.capture.entries;
    size_t i = 0;
    for (const auto& entry : entries) { // warm-up
        mapper.mapFromSeeds(entry.read, entry.seeds, *mapper_state);
    }
    AllocSnapshot before = allocNow();
    for (auto _ : state) {
        benchmark::DoNotOptimize(mapper.mapFromSeeds(
            entries[i].read, entries[i].seeds, *mapper_state));
        i = (i + 1) % entries.size();
    }
    AllocSnapshot delta = allocDelta(before);
    state.SetItemsProcessed(state.iterations());
    state.counters["bytes_per_read"] = benchmark::Counter(
        static_cast<double>(delta.bytes) /
        static_cast<double>(state.iterations()));
    state.counters["hit_rate"] =
        benchmark::Counter(mapper_state->totalStats().hitRate());
}

void
BM_ExtendSteady(benchmark::State& state, const char* input_set)
{
    const Workload& wl = workload(input_set);
    map::Extender extender(wl.world->graph(),
                           map::MapperParams().extend);
    gbwt::CachedGbwt cache(wl.world->gbwt());
    std::vector<ExtendSample> samples = pickExtendSamples(wl, 256);
    for (const ExtendSample& sample : samples) { // warm-up
        extender.extendSeed(sample.entry->seeds[sample.seedIndex],
                            sample.oriented, cache);
    }
    size_t i = 0;
    AllocSnapshot before = allocNow();
    for (auto _ : state) {
        const ExtendSample& sample = samples[i];
        benchmark::DoNotOptimize(extender.extendSeed(
            sample.entry->seeds[sample.seedIndex], sample.oriented,
            cache));
        i = (i + 1) % samples.size();
    }
    AllocSnapshot delta = allocDelta(before);
    state.SetItemsProcessed(state.iterations());
    state.counters["bytes_per_extend"] = benchmark::Counter(
        static_cast<double>(delta.bytes) /
        static_cast<double>(state.iterations()));
}

/**
 * Memory tracer that watches one GBWT's compressed record arena.  A record
 * decode streams that record's bytes starting at its first byte, and
 * nothing else in the mapping pipeline reads the arena through the tracer
 * (prefetches are untraced hints), so the start addresses seen between two
 * reset() calls are exactly the decodes of that interval — counted without
 * trusting the cache's own bookkeeping.
 */
class DecodeWitness : public util::MemTracer
{
  public:
    explicit DecodeWitness(const gbwt::Gbwt& gbwt)
        : begin_(gbwt.arenaRefs().arena),
          end_(begin_ + gbwt.arenaRefs().arenaSize)
    {}

    void
    onAccess(const void* addr, uint32_t, bool) override
    {
        const auto* p = static_cast<const uint8_t*>(addr);
        if (p >= begin_ && p < end_) {
            ++decodes_;
            records_.insert(p);
        }
    }

    void onWork(uint64_t) override {}

    /** Decodes of a record already decoded since the last reset(). */
    uint64_t repeats() const { return decodes_ - records_.size(); }
    uint64_t decodes() const { return decodes_; }

    void
    reset()
    {
        decodes_ = 0;
        records_.clear();
    }

  private:
    const uint8_t* begin_;
    const uint8_t* end_;
    uint64_t decodes_ = 0;
    std::unordered_set<const uint8_t*> records_;
};

/** Repeated record decodes within single reads, summed over a capture. */
struct DecodeCheck
{
    uint64_t decodes = 0;
    uint64_t repeats = 0;
};

DecodeCheck
checkDecodes(const Workload& wl, size_t cache_capacity)
{
    map::MapperParams params;
    params.gbwtCacheCapacity = cache_capacity;
    map::Mapper mapper(wl.world->graph(), wl.world->gbwt(),
                       wl.world->minimizers, wl.world->distance, params);
    DecodeWitness witness(wl.world->gbwt());
    auto state = mapper.makeState(&witness);
    DecodeCheck out;
    for (const auto& entry : wl.capture.entries) {
        witness.reset();
        mapper.mapFromSeeds(entry.read, entry.seeds, *state);
        out.decodes += witness.decodes();
        out.repeats += witness.repeats();
    }
    return out;
}

// --------------------------------------------------------------- reporting

/** Everything measured on one input set. */
struct InputRecord
{
    PassResult map;
    ExtendResult ext; // the median-rate sample
    double extMin = 0.0;
    double extMax = 0.0;
};

/** Match-run spans the kernel guard re-measures: a 150-bp read walking
 *  short bubble-chain nodes produces runs of at most a few dozen bases. */
constexpr uint32_t kGuardSpans[] = {32, 64};

/** Interleaved scalar/SWAR timing rounds behind one speedup figure. */
constexpr int kMatchRounds = 40;

/**
 * In-process SWAR-over-scalar match-run speedup at one span: the best
 * rate of each kernel over interleaved single-pass rounds, so a burst of
 * load or a clock change lands on both kernels alike.
 */
double
swarMatchSpeedup(uint32_t span)
{
    double scalar = 0.0;
    double swar = 0.0;
    for (int round = 0; round < kMatchRounds; ++round) {
        scalar = std::max(scalar, matchRunRate(MatchKernel::Scalar, span, 1));
        swar = std::max(swar, matchRunRate(MatchKernel::Swar, span, 1));
    }
    return scalar > 0.0 ? swar / scalar : 0.0;
}

/** JSON key of the committed SWAR speedup at one span. */
std::string
guardKey(uint32_t span)
{
    return "swar_match_speedup_" + std::to_string(span);
}

/** Packed-arena footprint of one world's graph. */
void
emitArenaJson(obs::JsonWriter& w, const graph::VariationGraph& g,
              const char* name)
{
    const graph::SequenceStore& store = g.sequenceStore();
    size_t stored = 2 * store.totalBases();
    // The pre-packing layout held both strands as one byte per base.
    double reduction =
        store.arenaBytes()
            ? static_cast<double>(stored) /
                  static_cast<double>(store.arenaBytes())
            : 0.0;
    w.key(name).beginObject();
    w.field("resident_bytes", static_cast<uint64_t>(store.footprintBytes()));
    w.field("arena_bytes", static_cast<uint64_t>(store.arenaBytes()));
    w.field("offset_table_bytes",
            static_cast<uint64_t>(store.offsetTableBytes()));
    w.field("reserved_bytes", static_cast<uint64_t>(store.reservedBytes()));
    w.field("bits_per_stored_base",
            stored ? 8.0 * static_cast<double>(store.arenaBytes()) /
                         static_cast<double>(stored)
                   : 0.0);
    w.field("byte_arena_reduction", reduction);
    w.field("sanitized_bases",
            static_cast<uint64_t>(store.sanitizedBases()));
    w.endObject();
}

/** Re-emit one parsed JSON value (carries trajectory rows forward). */
void
emitValue(obs::JsonWriter& w, const obs::json::Value& v)
{
    using Kind = obs::json::Value::Kind;
    switch (v.kind) {
      case Kind::Null: w.null(); break;
      case Kind::Bool: w.value(v.boolean); break;
      case Kind::Number: w.value(v.number); break;
      case Kind::String: w.value(v.text); break;
      case Kind::Array:
        w.beginArray();
        for (const obs::json::Value& item : v.items) {
            emitValue(w, item);
        }
        w.endArray();
        break;
      case Kind::Object:
        w.beginObject();
        for (const auto& [name, member] : v.members) {
            w.key(name);
            emitValue(w, member);
        }
        w.endObject();
        break;
    }
}

/** The `trajectory` rows of a committed record; empty when the file or
 *  the array is missing. */
std::vector<obs::json::Value>
trajectoryRows(const std::string& path)
{
    try {
        obs::json::Value doc =
            obs::json::parse(io::readFileText(path), path);
        const obs::json::Value* rows = doc.find("trajectory");
        if (rows != nullptr && rows->isArray()) {
            return rows->items;
        }
    } catch (const util::Error&) {
    }
    return {};
}

void
writeJson(const std::string& path, const std::string& trajectory_path,
          const std::string& label, const InputRecord& a,
          const InputRecord& b, const std::vector<double>& match_speedups)
{
    // Read the previous rows before the write: trajectory_path may be
    // `path` itself.
    const std::vector<obs::json::Value> rows =
        trajectoryRows(trajectory_path);
    obs::JsonWriter w;
    auto emit = [&](const char* name, const InputRecord& r) {
        w.key(name).beginObject();
        w.field("reads_per_sec", r.map.readsPerSec);
        w.field("bytes_per_read", r.map.bytesPerRead);
        w.field("allocs_per_read", r.map.allocsPerRead);
        w.field("cache_hit_rate", r.map.hitRate);
        w.field("extends_per_sec", r.ext.extendsPerSec);
        w.key("extends_per_sec_range").beginArray();
        w.value(r.extMin).value(r.extMax).endArray();
        w.field("bytes_per_extend", r.ext.bytesPerExtend);
        w.field("allocs_per_extend", r.ext.allocsPerExtend);
        w.field("words_per_extend", r.ext.wordsPerExtend);
        w.field("read_latency_p50_ns", r.map.p50Nanos);
        w.field("read_latency_p99_ns", r.map.p99Nanos);
        w.field("read_latency_p999_ns", r.map.p999Nanos);
        w.endObject();
    };
    w.beginObject();
    w.field("benchmark", "bench_hotpath");
    w.field("scale", g_scale);
    const machine::HostCpu& host = machine::hostCpu();
    w.key("cpu").beginObject();
    w.field("arch", host.arch);
    w.field("features", host.features);
    w.endObject();
    w.key("method").beginObject();
    w.field("threads", 1);
    w.field("map_passes", kRecordMapPasses);
    w.field("extend_passes", kRecordExtendPasses);
    w.field("match_run_rounds", kMatchRounds);
    w.field("samples", kRecordSamples);
    w.endObject();
    w.key("results").beginObject();
    emit("A-human", a);
    emit("B-yeast", b);
    w.endObject();
    w.key("packed_arena").beginObject();
    emitArenaJson(w, workload("A-human").world->graph(), "A-human");
    emitArenaJson(w, workload("B-yeast").world->graph(), "B-yeast");
    w.endObject();
    // The guard section: in-process kernel ratios (machine speed
    // cancels), the quantities perf_guard_hotpath re-measures.
    w.key("guard").beginObject();
    for (size_t i = 0; i < match_speedups.size(); ++i) {
        w.field(guardKey(kGuardSpans[i]), match_speedups[i]);
    }
    w.endObject();
    // Steady-state extends/sec over the record's history, this run last.
    w.key("trajectory").beginArray();
    for (const obs::json::Value& row : rows) {
        emitValue(w, row);
    }
    w.beginObject();
    w.field("label", label);
    w.field("commit", sourceCommit());
    w.field("host", host.arch + " " + host.features);
    w.field("threads", static_cast<uint64_t>(1));
    w.field("repetitions", static_cast<uint64_t>(kRecordSamples));
    w.field("A-human", a.ext.extendsPerSec);
    w.field("B-yeast", b.ext.extendsPerSec);
    w.key("A-human_range").beginArray();
    w.value(a.extMin).value(a.extMax).endArray();
    w.key("B-yeast_range").beginArray();
    w.value(b.extMin).value(b.extMax).endArray();
    w.field("A-human_allocs_per_read", a.map.allocsPerRead);
    w.field("B-yeast_allocs_per_read", b.map.allocsPerRead);
    w.endObject();
    w.endArray();
    w.endObject();
    try {
        w.writeFile(path);
    } catch (const util::Error& e) {
        std::fprintf(stderr, "bench_hotpath: %s\n", e.what());
        return;
    }
    std::printf("wrote %s\n", path.c_str());
}

// ------------------------------------------------------------------- guard

/** Minimal scan for `"key": <number>` in a JSON text; < 0 if absent. */
double
jsonNumber(const std::string& text, const std::string& key)
{
    size_t at = text.find("\"" + key + "\"");
    if (at == std::string::npos) {
        return -1.0;
    }
    at = text.find(':', at);
    if (at == std::string::npos) {
        return -1.0;
    }
    return std::atof(text.c_str() + at + 1);
}

/**
 * Perf guard for the match kernel: per guard span, the SWAR-over-scalar
 * match-run speedup is re-measured in-process (best of up to ten spaced
 * attempts, so machine speed and load cancel) and must stay within 15%
 * of the ratio committed in the record's `guard` section.
 */
int
guardRun(const std::string& committed_path)
{
    std::string text;
    try {
        text = io::readFileText(committed_path);
    } catch (const util::Error& e) {
        std::fprintf(stderr, "FAIL: cannot read committed record %s: %s\n",
                     committed_path.c_str(), e.what());
        return 1;
    }
    int failures = 0;
    for (uint32_t span : kGuardSpans) {
        const std::string key = guardKey(span);
        const double committed = jsonNumber(text, key);
        if (committed <= 0.0) {
            std::fprintf(stderr, "FAIL: %s has no %s entry\n",
                         committed_path.c_str(), key.c_str());
            ++failures;
            continue;
        }
        // A busy neighbour (SMT sibling, shared host) slows the two
        // kernels unequally for seconds at a time, so a failing attempt
        // is retried a few times, spaced out, before the verdict.
        const double threshold = 0.85 * committed;
        double best = 0.0;
        for (int attempt = 0; attempt < 10 && best < threshold; ++attempt) {
            if (attempt > 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(300));
            }
            best = std::max(best, swarMatchSpeedup(span));
        }
        std::printf("perf-guard span %u: swar/scalar match-run speedup "
                    "%.3f (committed %.3f, floor %.3f)\n",
                    span, best, committed, threshold);
        if (best < threshold) {
            std::fprintf(stderr,
                         "FAIL: SWAR match-run speedup at %u-base spans "
                         "regressed >15%% below the committed record "
                         "(%.3f < %.3f)\n",
                         span, best, threshold);
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

/**
 * Obs guard: price the live-metrics layer.  Per input set, time the
 * mapping kernel with metrics off and on in the same process (best of
 * up to five interleaved attempts, so machine speed and drift cancel) and
 * fail if the on/off throughput ratio drops below 0.98 — the telemetry
 * layer promises a pointer test plus ~20 buffered increments per read,
 * which must stay under 2%.  The committed BENCH record is read for a
 * context line only; the verdict is machine-independent.
 */
int
guardObsRun(const std::string& committed_path)
{
    try {
        std::string text = io::readFileText(committed_path);
        double committed = jsonNumber(text, "reads_per_sec");
        if (committed > 0.0) {
            std::printf("perf-guard-obs: committed record %s "
                        "(%.0f reads/s at record time)\n",
                        committed_path.c_str(), committed);
        }
    } catch (const util::Error& e) {
        std::printf("perf-guard-obs: no committed record (%s)\n",
                    e.what());
    }
    int failures = 0;
    for (const char* input_set : { "A-human", "B-yeast" }) {
        const Workload& wl = workload(input_set);
        double best = 0.0;
        for (int attempt = 0; attempt < 5 && best < 0.98; ++attempt) {
            obs::Hub hub(1);
            PassResult off = measureMapping(wl, 2);
            PassResult on = measureMapping(wl, 2, &hub);
            if (off.readsPerSec > 0.0) {
                best = std::max(best, on.readsPerSec / off.readsPerSec);
            }
        }
        std::printf("perf-guard-obs %s: metrics-on/off throughput ratio "
                    "%.4f (floor 0.98)\n",
                    input_set, best);
        if (best < 0.98) {
            std::fprintf(stderr,
                         "FAIL: live metrics cost >2%% of mapping "
                         "throughput on %s (ratio %.4f)\n",
                         input_set, best);
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

/**
 * Trace guard: price end-to-end request tracing at a realistic
 * head-sampling rate.  Per input set, time the mapping kernel with
 * tracing off and with one read in 100 carrying a StageAccumulator
 * (best of up to five interleaved attempts) and fail if the on/off
 * throughput ratio drops below 0.98 — tracing promises "a null pointer
 * test per untraced read, two clock reads per stage on traced ones",
 * which at 1%% sampling must be noise.  The committed BENCH record is
 * read for a context line only; the verdict is machine-independent.
 */
int
guardTraceRun(const std::string& committed_path)
{
    try {
        std::string text = io::readFileText(committed_path);
        double committed = jsonNumber(text, "reads_per_sec");
        if (committed > 0.0) {
            std::printf("perf-guard-trace: committed record %s "
                        "(%.0f reads/s at record time)\n",
                        committed_path.c_str(), committed);
        }
    } catch (const util::Error& e) {
        std::printf("perf-guard-trace: no committed record (%s)\n",
                    e.what());
    }
    int failures = 0;
    for (const char* input_set : { "A-human", "B-yeast" }) {
        const Workload& wl = workload(input_set);
        double best = 0.0;
        double best_full = 0.0;
        for (int attempt = 0; attempt < 5 && best < 0.98; ++attempt) {
            PassResult off = measureMapping(wl, 2);
            PassResult sampled = measureMapping(wl, 2, nullptr, 100);
            PassResult full = measureMapping(wl, 2, nullptr, 1);
            if (off.readsPerSec > 0.0) {
                best =
                    std::max(best, sampled.readsPerSec / off.readsPerSec);
                best_full =
                    std::max(best_full, full.readsPerSec / off.readsPerSec);
            }
        }
        std::printf("perf-guard-trace %s: 1%%-sampled/off throughput "
                    "ratio %.4f (floor 0.98); every-read ratio %.4f "
                    "(context)\n",
                    input_set, best, best_full);
        if (best < 0.98) {
            std::fprintf(stderr,
                         "FAIL: request tracing at 1%% sampling costs "
                         ">2%% of mapping throughput on %s (ratio %.4f)\n",
                         input_set, best);
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

/**
 * Allocations per mapped read (mapFromSeeds) before the seed-and-cluster
 * front end reused its buffers, as recorded in BENCH_hotpath.json at
 * scale 0.1; the smoke run's counts must stay below them.
 */
constexpr std::pair<const char*, double> kAllocsPerReadCeiling[] = {
    {"A-human", 39.2},
    {"B-yeast", 14.8},
};

int
smokeRun()
{
    int failures = 0;
    // Machine-independent allocation gates, on both analogs: the front
    // end allocates nothing per steady-state read, and the whole mapped
    // read allocates less than before the front end reused its buffers.
    for (const auto& [input_set, ceiling] : kAllocsPerReadCeiling) {
        const Workload& wl = workload(input_set);
        const double front_end = frontEndAllocsPerRead(wl);
        const double per_read = measureMapping(wl, 1).allocsPerRead;
        std::printf("perf-smoke %s allocations: %.3f per read in "
                    "findSeedsInto + clusterSeedsInto, %.2f per mapped "
                    "read (ceiling %.1f)\n",
                    input_set, front_end, per_read, ceiling);
        if (front_end != 0.0) {
            std::fprintf(stderr,
                         "FAIL: the seed-and-cluster front end allocates "
                         "%.2f times per steady-state read on %s; it must "
                         "reuse its buffers\n",
                         front_end, input_set);
            ++failures;
        }
        if (per_read >= ceiling) {
            std::fprintf(stderr,
                         "FAIL: %.2f allocations per mapped read on %s, "
                         "not below %.1f\n",
                         per_read, input_set, ceiling);
            ++failures;
        }
    }

    // One quick repetition on the A analog: fast enough for CTest, long
    // enough that a >20% kernel regression is visible in the logged
    // reads/sec, with hard failures only on machine-independent invariants.
    const Workload& wl = workload("A-human");
    PassResult map_a = measureMapping(wl, 1);
    ExtendResult ext_a = measureExtend(wl, 4);
    std::printf("perf-smoke A-human: %.0f reads/s, %.1f B/read, "
                "hit %.3f, extend %.0f/s, %.1f B/extend\n",
                map_a.readsPerSec, map_a.bytesPerRead, map_a.hitRate,
                ext_a.extendsPerSec, ext_a.bytesPerExtend);
    std::printf("perf-smoke A-human latency: p50 %s, p99 %s, p999 %s\n",
                stats::formatNanos(map_a.p50Nanos).c_str(),
                stats::formatNanos(map_a.p99Nanos).c_str(),
                stats::formatNanos(map_a.p999Nanos).c_str());
    if (ext_a.bytesPerExtend != 0.0 || ext_a.allocsPerExtend != 0.0) {
        std::fprintf(stderr,
                     "FAIL: steady-state extend loop allocates "
                     "(%.1f bytes, %.2f allocs per extend); the kernel "
                     "must be allocation-free\n",
                     ext_a.bytesPerExtend, ext_a.allocsPerExtend);
        ++failures;
    }
    // The per-read cache's contract: within one read, every record decodes
    // at most once.  The uncached control must show repeats, or the
    // witness is blind and the check proves nothing.
    const DecodeCheck cached = checkDecodes(
        wl, map::MapperParams().gbwtCacheCapacity);
    const DecodeCheck uncached = checkDecodes(wl, 0);
    std::printf("perf-smoke A-human decodes: %llu (%llu repeated within a "
                "read); uncached control %llu (%llu repeated)\n",
                static_cast<unsigned long long>(cached.decodes),
                static_cast<unsigned long long>(cached.repeats),
                static_cast<unsigned long long>(uncached.decodes),
                static_cast<unsigned long long>(uncached.repeats));
    if (cached.decodes == 0 || cached.repeats != 0) {
        std::fprintf(stderr,
                     "FAIL: CachedGBWT decoded %llu records more than once "
                     "within a read; the per-read cache is losing its "
                     "entries\n",
                     static_cast<unsigned long long>(cached.repeats));
        ++failures;
    }
    if (uncached.repeats == 0) {
        std::fprintf(stderr,
                     "FAIL: the decode witness saw no repeats with caching "
                     "disabled; it cannot observe decodes\n");
        ++failures;
    }
    return failures == 0 ? 0 : 1;
}

} // namespace
} // namespace mg::bench

int
main(int argc, char** argv)
{
    using namespace mg::bench;
    bool smoke = false;
    std::string out_path = "BENCH_hotpath.json";
    std::string baseline_path;
    std::string label = "bench_hotpath run";
    std::string guard_path;
    std::string guard_obs_path;
    std::string guard_trace_path;
    std::vector<char*> passthrough;
    passthrough.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strncmp(argv[i], "--guard=", 8) == 0) {
            guard_path = argv[i] + 8;
        } else if (std::strncmp(argv[i], "--guard-obs=", 12) == 0) {
            guard_obs_path = argv[i] + 12;
        } else if (std::strncmp(argv[i], "--guard-trace=", 14) == 0) {
            guard_trace_path = argv[i] + 14;
        } else if (std::strncmp(argv[i], "--scale=", 8) == 0) {
            g_scale = std::atof(argv[i] + 8);
        } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
            out_path = argv[i] + 6;
        } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
            baseline_path = argv[i] + 11;
        } else if (std::strncmp(argv[i], "--label=", 8) == 0) {
            label = argv[i] + 8;
        } else {
            passthrough.push_back(argv[i]);
        }
    }
    if (smoke || !guard_path.empty() || !guard_obs_path.empty() ||
        !guard_trace_path.empty()) {
        if (g_scale > 0.05) {
            g_scale = 0.05; // keep CTest fast regardless of the default
        }
        if (!guard_path.empty()) {
            return guardRun(guard_path);
        }
        if (!guard_obs_path.empty()) {
            return guardObsRun(guard_obs_path);
        }
        if (!guard_trace_path.empty()) {
            return guardTraceRun(guard_trace_path);
        }
        return smokeRun();
    }

    banner("hotpath", "Hot-path kernel throughput, allocation, and cache "
                      "behaviour (single thread)");
    std::printf("cpu: %s %s\n", mg::machine::hostCpu().arch.c_str(),
                mg::machine::hostCpu().features.c_str());

    // Deterministic measurement passes for the JSON record.
    auto record = [](const Workload& wl) {
        InputRecord r;
        r.map = measureMapping(wl, kRecordMapPasses);
        std::vector<ExtendResult> ext;
        for (int i = 0; i < kRecordSamples; ++i) {
            ext.push_back(measureExtend(wl, kRecordExtendPasses));
        }
        std::sort(ext.begin(), ext.end(),
                  [](const ExtendResult& x, const ExtendResult& y) {
                      return x.extendsPerSec < y.extendsPerSec;
                  });
        r.ext = ext[ext.size() / 2];
        r.extMin = ext.front().extendsPerSec;
        r.extMax = ext.back().extendsPerSec;
        return r;
    };
    auto report = [](const char* name, const InputRecord& r) {
        std::printf(
            "%s: %10.0f reads/s  %8.1f B/read  %6.2f allocs/read"
            "  hit %.4f\n         %10.0f ext/s (%.0f-%.0f)  %8.1f B/extend"
            "  %6.2f words/ext\n         read latency: p50 %s, p99 %s, "
            "p999 %s\n",
            name, r.map.readsPerSec, r.map.bytesPerRead,
            r.map.allocsPerRead, r.map.hitRate, r.ext.extendsPerSec,
            r.extMin, r.extMax, r.ext.bytesPerExtend, r.ext.wordsPerExtend,
            mg::stats::formatNanos(r.map.p50Nanos).c_str(),
            mg::stats::formatNanos(r.map.p99Nanos).c_str(),
            mg::stats::formatNanos(r.map.p999Nanos).c_str());
    };
    InputRecord rec_a = record(workload("A-human"));
    InputRecord rec_b = record(workload("B-yeast"));
    report("A-human", rec_a);
    report("B-yeast", rec_b);
    // The committed guard ratio is a median, so one unusually quiet or
    // busy moment does not set the floor.
    std::vector<double> match_speedups;
    for (uint32_t span : kGuardSpans) {
        std::vector<double> samples;
        for (int i = 0; i < kRecordSamples; ++i) {
            samples.push_back(swarMatchSpeedup(span));
        }
        std::sort(samples.begin(), samples.end());
        match_speedups.push_back(samples[samples.size() / 2]);
        std::printf("match run, %u-base spans: swar %.2fx scalar "
                    "(median, range %.2f-%.2f)\n",
                    span, match_speedups.back(), samples.front(),
                    samples.back());
    }
    writeJson(out_path, baseline_path.empty() ? out_path : baseline_path,
              label, rec_a, rec_b, match_speedups);

    // Google-benchmark pass (iteration-level timing, same kernels).
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::RegisterBenchmark("BM_MapFromSeeds/A", BM_MapFromSeeds,
                                 "A-human");
    benchmark::RegisterBenchmark("BM_MapFromSeeds/B", BM_MapFromSeeds,
                                 "B-yeast");
    benchmark::RegisterBenchmark("BM_ExtendSteady/A", BM_ExtendSteady,
                                 "A-human");
    benchmark::RegisterBenchmark("BM_ExtendSteady/B", BM_ExtendSteady,
                                 "B-yeast");
    benchmark::Initialize(&bench_argc, passthrough.data());
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
