/**
 * @file
 * Hot-path benchmark harness (perf trajectory anchor).  Measures the
 * seed-and-extend kernel the paper identifies as memory-bound: single-thread
 * mapping throughput (reads/sec), heap bytes allocated per read and per
 * steady-state extension (via a global operator-new counter), and the
 * CachedGBWT hit rate, on input-set analogs A and B, plus the SWAR match
 * kernel's speedup over its scalar oracle.  Emits `BENCH_hotpath.json`,
 * the repo's one hot-path record: this run's numbers and a `trajectory`
 * array of extends/sec rows (with the commit, host, rounds and interval
 * behind each), carried over from the previous record with this run
 * appended, so every later change can compare against a recorded
 * baseline.
 *
 * Every rate, ratio and guard verdict here comes from one method,
 * stats::pairedRatio: kRounds rounds of one pass per side, alternating
 * which side goes first, each pass timed on the thread CPU clock (match
 * kernels on TSC ticks); a guard fails when the median per-round ratio is
 * below its floor, never on the interval.
 *
 * Modes:
 *   bench_hotpath [--scale=S] [--out=PATH] [--baseline=PATH]
 *       [--label=TEXT]                                      full run + JSON
 *   bench_hotpath --smoke [--scale=S]                       quick CTest run
 *   bench_hotpath --guard=PATH | --guard-obs=PATH | --guard-trace=PATH
 *                                                           perf guards
 *
 * The smoke mode (CTest label `perf-smoke`) enforces machine-independent
 * invariants of the optimized kernel — zero heap allocations in the
 * steady-state extend loop and in the seed-and-cluster front end, fewer
 * allocations per mapped read than before the front end reused its
 * buffers, and a per-read CachedGBWT that never decodes the same record
 * twice within one read — and logs one timed pass of each loop.
 *
 * The guards (labels `perf-smoke` and `perf-guard`):
 *   --guard        SWAR match-run loop over its frozen reference copy at
 *                  32- and 64-base spans (the span regime of 150-bp
 *                  reads over short bubble-chain nodes) >= 0.85 x the
 *                  committed median;
 *   --guard-obs    metrics-on/off mapping throughput >= 0.98;
 *   --guard-trace  1%-sampled/untraced mapping throughput >= 0.98, with
 *                  the every-read ratio printed as context.
 */
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <tuple>
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

/**
 * Rounds behind every paired measurement here: one pass per side per
 * round.  Many short rounds, not a few long ones, are what cancel host
 * drift (see stats/paired.h).
 */
constexpr size_t kRounds = 201;

/** Extensions of every sample per timed extend pass. */
constexpr int kExtendRepsPerPass = 8;

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

/**
 * One warm mapper over a workload's capture, timed one pass at a time.
 * The constructor maps every read once untimed, so caches and scratch
 * reach capacity, and drops those counts.
 *
 * When `hub` is set the passes run with live metrics attached — per-read
 * funnel increments plus one flush per pass, the same cadence a batch
 * scheduler produces — so the obs guard can price the telemetry.  When
 * `trace_every` is N > 0, one read in N maps with a StageAccumulator
 * bound (the per-request span context a traced daemon request carries;
 * untraced reads pay the same null pointer test the daemon's do), so the
 * trace guard can price request tracing at a head-sampling rate.
 */
class MappingPass
{
  public:
    explicit MappingPass(const Workload& wl, obs::Hub* hub = nullptr,
                         int trace_every = 0)
        : entries_(wl.capture.entries),
          mapper_(wl.world->graph(), wl.world->gbwt(), wl.world->minimizers,
                  wl.world->distance, map::MapperParams()),
          state_(mapper_.makeState()),
          hub_(hub),
          traceEvery_(static_cast<size_t>(trace_every))
    {
        for (const auto& entry : entries_) {
            mapper_.mapFromSeeds(entry.read, entry.seeds, *state_);
        }
        if (hub_ != nullptr) { // bind after warm-up: steady state only
            state_->metrics = hub_->slab(0);
            state_->metricIds = &hub_->map();
        }
        state_->tally = map::Tally{};
    }

    /** Thread CPU seconds of one pass over every read. */
    double
    run()
    {
        const uint64_t start = util::threadCpuNanos();
        for (const auto& entry : entries_) {
            if (traceEvery_ > 0) {
                state_->stageTrace =
                    reads_ % traceEvery_ == 0 ? &trace_ : nullptr;
            }
            ++reads_;
            benchmark::DoNotOptimize(
                mapper_.mapFromSeeds(entry.read, entry.seeds, *state_));
        }
        if (hub_ != nullptr) {
            state_->flushMetrics();
        }
        return static_cast<double>(util::threadCpuNanos() - start) * 1e-9;
    }

    size_t workPerPass() const { return entries_.size(); }

    /** Cache statistics and the latency histogram of every pass. */
    const map::MapperState& state() const { return *state_; }

  private:
    const std::vector<io::ReadWithSeeds>& entries_;
    map::Mapper mapper_;
    std::unique_ptr<map::MapperState> state_;
    obs::Hub* hub_;
    size_t traceEvery_;
    obs::StageAccumulator trace_;
    size_t reads_ = 0;
};

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

/** A warm extender over up to 256 sampled seeds, timed one pass at a
 *  time (kExtendRepsPerPass extensions of every sample).  The GBWT cache
 *  is recycled at each sampled read's boundary, as the mapper recycles
 *  it per read, so a pass decodes at mapping's hit rate instead of
 *  timing only cache hits. */
class ExtendPass
{
  public:
    explicit ExtendPass(const Workload& wl)
        : extender_(wl.world->graph(), map::MapperParams().extend),
          cache_(wl.world->gbwt()),
          samples_(pickExtendSamples(wl, 256))
    {
        MG_ASSERT(!samples_.empty());
        // Warm-up: every sample extended once (scratch spills, the
        // cache's decoded-record storage grows to its working set).
        extendAll();
        cache_.clear();
        scratch_.wordsCompared = 0;
        stats_ = gbwt::CacheStats();
    }

    /** Thread CPU seconds of one pass. */
    double
    run()
    {
        const uint64_t start = util::threadCpuNanos();
        for (int rep = 0; rep < kExtendRepsPerPass; ++rep) {
            extendAll();
        }
        extends_ += workPerPass();
        return static_cast<double>(util::threadCpuNanos() - start) * 1e-9;
    }

    /** GBWT cache hit rate over every timed pass. */
    double
    hitRate() const
    {
        gbwt::CacheStats total = stats_;
        total.accumulate(cache_.stats());
        return total.hitRate();
    }

    size_t workPerPass() const { return samples_.size() * kExtendRepsPerPass; }

    /** 32-base chunks examined per extension, over every pass. */
    double
    wordsPerExtend() const
    {
        return static_cast<double>(scratch_.wordsCompared) /
               static_cast<double>(extends_);
    }

  private:
    /** Extend every sample once, starting each read with a cold cache. */
    void
    extendAll()
    {
        const io::ReadWithSeeds* read = nullptr;
        for (const ExtendSample& sample : samples_) {
            if (sample.entry != read) {
                stats_.accumulate(cache_.stats());
                cache_.clear();
                read = sample.entry;
            }
            benchmark::DoNotOptimize(extender_.extendSeed(
                sample.entry->seeds[sample.seedIndex], sample.oriented,
                cache_, scratch_));
        }
    }

    map::Extender extender_;
    gbwt::CachedGbwt cache_;
    map::ExtendScratch scratch_;
    std::vector<ExtendSample> samples_;
    gbwt::CacheStats stats_; // cleared epochs of the timed passes
    size_t extends_ = 0;
};

/** Heap allocations of one more pass, per unit of its work (read or
 *  extension). */
template <typename Pass>
std::pair<double, double>
bytesAndAllocsPerUnit(Pass& pass)
{
    const AllocSnapshot before = allocNow();
    pass.run();
    const AllocSnapshot delta = allocDelta(before);
    const auto units = static_cast<double>(pass.workPerPass());
    return {static_cast<double>(delta.bytes) / units,
            static_cast<double>(delta.calls) / units};
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

// --------------------------------------------------------------- measuring

/** Match-run spans the kernel guard re-measures: a 150-bp read walking
 *  short bubble-chain nodes produces runs of at most a few dozen bases. */
constexpr uint32_t kGuardSpans[] = {32, 64};

/** Match-run throughput of `candidate` over `baseline` at one span. */
stats::PairedRatio
matchRunRatio(MatchKernel baseline, MatchKernel candidate, uint32_t span)
{
    return stats::pairedRatio(
        kRounds, [=] { return matchRunTicks(baseline, span); },
        [=] { return matchRunTicks(candidate, span); });
}

/** Mapping with metrics off (baseline) vs live metrics on (candidate). */
stats::PairedRatio
metricsOnOff(const Workload& wl, MappingPass& off)
{
    obs::Hub hub(1);
    MappingPass on(wl, &hub);
    return stats::pairedRatio(
        kRounds, [&] { return off.run(); }, [&] { return on.run(); });
}

/** Mapping with tracing off (baseline) vs one read in `every` traced. */
stats::PairedRatio
tracedOff(const Workload& wl, MappingPass& off, int every)
{
    MappingPass traced(wl, nullptr, every);
    return stats::pairedRatio(
        kRounds, [&] { return off.run(); }, [&] { return traced.run(); });
}

/** `<name>_<span>`, the JSON key of one span's match-run ratio. */
std::string
spanKey(const char* name, uint32_t span)
{
    return std::string(name) + "_" + std::to_string(span);
}

// --------------------------------------------------------------- reporting

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

/** What the trajectory row keeps of one input set's record. */
struct TrajectoryPoint
{
    stats::ConfidenceInterval extendsPerSec;
    double allocsPerRead = 0.0;
    double extendHitRate = 0.0;
};

/**
 * Measure one input set and write its `results` member.  Mapping
 * throughput is the baseline side of the metrics pair.  Extends/s comes
 * from an A/A pair (two identical extend passes per round): its ratio,
 * expected 1, states the method's noise floor on the recording host.
 */
TrajectoryPoint
recordInputSet(obs::JsonWriter& w, const char* input_set)
{
    const Workload& wl = workload(input_set);
    MappingPass off(wl);
    const stats::PairedRatio metrics = metricsOnOff(wl, off);
    const stats::PairedRatio sampled = tracedOff(wl, off, 100);
    const stats::PairedRatio every = tracedOff(wl, off, 1);
    ExtendPass ext(wl);
    const stats::PairedRatio extend = stats::pairedRatio(
        kRounds, [&] { return ext.run(); }, [&] { return ext.run(); });
    const stats::ConfidenceInterval reads = rateOf(
        static_cast<double>(off.workPerPass()), metrics.baselineCost);
    const stats::ConfidenceInterval extends = rateOf(
        static_cast<double>(ext.workPerPass()), extend.baselineCost);
    const auto [bytes_per_read, allocs_per_read] =
        bytesAndAllocsPerUnit(off);
    const auto [bytes_per_extend, allocs_per_extend] =
        bytesAndAllocsPerUnit(ext);
    const stats::LatencyHistogram& latency = off.state().tally.latency;
    const double hit_rate = off.state().totalStats().hitRate();
    const double extend_hit_rate = ext.hitRate();

    std::printf(
        "%s: %10.0f reads/s (%.0f-%.0f)  %8.1f B/read  %6.2f allocs/read"
        "  hit %.4f\n         %10.0f ext/s (%.0f-%.0f)  %8.1f B/extend"
        "  %6.2f words/ext  hit %.4f\n         metrics on/off %.4f, trace "
        "1%%/off %.4f, every-read/off %.4f, extend A/A %.4f\n         read "
        "latency: p50 %s, p99 %s, p999 %s\n",
        input_set, reads.pointEstimate, reads.lower, reads.upper,
        bytes_per_read, allocs_per_read, hit_rate, extends.pointEstimate,
        extends.lower, extends.upper, bytes_per_extend,
        ext.wordsPerExtend(), extend_hit_rate, metrics.median(),
        sampled.median(),
        every.median(), extend.median(),
        stats::formatNanos(latency.p50()).c_str(),
        stats::formatNanos(latency.p99()).c_str(),
        stats::formatNanos(latency.p999()).c_str());

    w.key(input_set).beginObject();
    writeEstimate(w, "reads_per_sec", reads, kRounds);
    writeEstimate(w, "metrics_on_off_ratio", metrics.ratio, kRounds);
    writeEstimate(w, "trace_1pct_off_ratio", sampled.ratio, kRounds);
    writeEstimate(w, "trace_every_read_off_ratio", every.ratio, kRounds);
    writeEstimate(w, "extends_per_sec", extends, kRounds);
    writeEstimate(w, "extend_a_a_ratio", extend.ratio, kRounds);
    w.field("bytes_per_read", bytes_per_read);
    w.field("allocs_per_read", allocs_per_read);
    w.field("cache_hit_rate", hit_rate);
    w.field("bytes_per_extend", bytes_per_extend);
    w.field("allocs_per_extend", allocs_per_extend);
    w.field("words_per_extend", ext.wordsPerExtend());
    w.field("extend_cache_hit_rate", extend_hit_rate);
    w.field("read_latency_p50_ns", latency.p50());
    w.field("read_latency_p99_ns", latency.p99());
    w.field("read_latency_p999_ns", latency.p999());
    w.endObject();
    return {extends, allocs_per_read, extend_hit_rate};
}

/** Measure everything and write the record to `path`, carrying the
 *  trajectory rows of the record at `trajectory_path` forward. */
void
writeRecord(const std::string& path, const std::string& trajectory_path,
            const std::string& label)
{
    // Read the previous rows before the write: trajectory_path may be
    // `path` itself.
    const std::vector<obs::json::Value> rows =
        trajectoryRows(trajectory_path);
    const machine::HostCpu& host = machine::hostCpu();
    const std::string commit = sourceCommit();
    const std::string host_name = host.arch + " " + host.features;
    obs::JsonWriter w;
    w.beginObject();
    w.field("benchmark", "bench_hotpath");
    w.field("commit", commit);
    w.field("host", host_name);
    w.field("scale", g_scale);
    w.key("method").beginObject();
    w.field("text", kPairedMethod);
    w.field("threads", 1);
    w.field("rounds", static_cast<uint64_t>(kRounds));
    w.field("passes",
            "map: every read of the seed capture; extend: up to 256 "
            "sampled seeds, " + std::to_string(kExtendRepsPerPass) +
                " extensions each, GBWT cache recycled per read; match: "
                "about 2M bases of all-match runs");
    w.endObject();
    w.key("results").beginObject();
    const TrajectoryPoint a = recordInputSet(w, "A-human");
    const TrajectoryPoint b = recordInputSet(w, "B-yeast");
    w.endObject();
    w.key("packed_arena").beginObject();
    emitArenaJson(w, workload("A-human").world->graph(), "A-human");
    emitArenaJson(w, workload("B-yeast").world->graph(), "B-yeast");
    w.endObject();
    // The match kernel's speedup over its scalar oracle, and the ratio
    // perf_guard_hotpath re-measures: the SWAR loop over its frozen
    // reference copy (the guard's floor is 0.85 x each median).
    for (const auto& [section, key, baseline] :
         {std::tuple("match_run", "swar_match_speedup", MatchKernel::Scalar),
          std::tuple("guard", "swar_over_reference",
                     MatchKernel::SwarReference)}) {
        w.key(section).beginObject();
        for (uint32_t span : kGuardSpans) {
            const stats::PairedRatio ratio =
                matchRunRatio(baseline, MatchKernel::Swar, span);
            std::printf("match run, %u-base spans: %s %s\n", span, key,
                        describe(ratio).c_str());
            writeEstimate(w, spanKey(key, span), ratio.ratio, kRounds);
        }
        w.endObject();
    }
    // Steady-state extends/sec over the record's history, this run last.
    w.key("trajectory").beginArray();
    for (const obs::json::Value& row : rows) {
        emitValue(w, row);
    }
    w.beginObject();
    w.field("label", label);
    w.field("commit", commit);
    w.field("host", host_name);
    w.field("threads", static_cast<uint64_t>(1));
    w.field("rounds", static_cast<uint64_t>(kRounds));
    w.field("A-human", a.extendsPerSec.pointEstimate);
    w.field("B-yeast", b.extendsPerSec.pointEstimate);
    w.key("A-human_ci").beginArray();
    w.value(a.extendsPerSec.lower).value(a.extendsPerSec.upper).endArray();
    w.key("B-yeast_ci").beginArray();
    w.value(b.extendsPerSec.lower).value(b.extendsPerSec.upper).endArray();
    w.field("A-human_allocs_per_read", a.allocsPerRead);
    w.field("B-yeast_allocs_per_read", b.allocsPerRead);
    w.field("A-human_extend_hit_rate", a.extendHitRate);
    w.field("B-yeast_extend_hit_rate", b.extendHitRate);
    w.endObject();
    w.endArray();
    w.endObject();
    w.writeFile(path);
    std::printf("wrote %s\n", path.c_str());
}

// ------------------------------------------------------------------ guards

/** The number at `keys` (from the root) in the committed record at
 *  `path`; < 0 when the file or the entry is missing. */
double
committedValue(const std::string& path,
               std::initializer_list<std::string_view> keys)
{
    try {
        const obs::json::Value doc =
            obs::json::parse(io::readFileText(path), path);
        const obs::json::Value* value = &doc;
        for (std::string_view key : keys) {
            value = value->find(key);
            if (value == nullptr) {
                return -1.0;
            }
        }
        return value->isNumber() ? value->number : -1.0;
    } catch (const util::Error&) {
        return -1.0;
    }
}

/**
 * Perf guard for the match kernel: per guard span, one paired ratio of
 * the SWAR loop over its frozen reference copy, whose median must stay
 * within 15% of the median committed in the record's `guard` section.
 * The SWAR/scalar speedup is printed for context only: a busy neighbour
 * moves it by up to a third, but moves both copies of the SWAR loop
 * alike.
 */
int
guardRun(const std::string& committed_path)
{
    int failures = 0;
    for (uint32_t span : kGuardSpans) {
        const std::string key = spanKey("swar_over_reference", span);
        const double committed =
            committedValue(committed_path, {"guard", key, "median"});
        if (committed <= 0.0) {
            std::fprintf(stderr, "FAIL: %s has no guard.%s.median entry\n",
                         committed_path.c_str(), key.c_str());
            ++failures;
            continue;
        }
        const double floor = 0.85 * committed;
        const stats::PairedRatio ratio =
            matchRunRatio(MatchKernel::SwarReference, MatchKernel::Swar, span);
        const stats::PairedRatio speedup =
            matchRunRatio(MatchKernel::Scalar, MatchKernel::Swar, span);
        std::printf("perf-guard span %u: swar/reference match-run %s "
                    "(committed %.4f, floor %.4f); swar/scalar %s "
                    "(context)\n",
                    span, describe(ratio).c_str(), committed, floor,
                    describe(speedup).c_str());
        if (ratio.median() < floor) {
            std::fprintf(stderr,
                         "FAIL: the SWAR match run at %u-base spans is "
                         ">15%% slower than its reference copy, relative "
                         "to the committed record (%.4f < %.4f)\n",
                         span, ratio.median(), floor);
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

/**
 * Obs guard: per input set, metrics-on over metrics-off mapping
 * throughput must not drop below 0.98 — the telemetry layer promises a
 * pointer test plus ~20 buffered increments per read.
 */
int
guardObsRun(const std::string& committed_path)
{
    int failures = 0;
    for (const char* input_set : {"A-human", "B-yeast"}) {
        const Workload& wl = workload(input_set);
        MappingPass off(wl);
        const stats::PairedRatio ratio = metricsOnOff(wl, off);
        std::printf("perf-guard-obs %s: metrics-on/off throughput %s "
                    "(floor 0.98; committed %.4f)\n",
                    input_set, describe(ratio).c_str(),
                    committedValue(committed_path,
                                   {"results", input_set,
                                    "metrics_on_off_ratio", "median"}));
        if (ratio.median() < 0.98) {
            std::fprintf(stderr,
                         "FAIL: live metrics cost >2%% of mapping "
                         "throughput on %s (median ratio %.4f)\n",
                         input_set, ratio.median());
            ++failures;
        }
    }
    return failures == 0 ? 0 : 1;
}

/**
 * Trace guard: per input set, 1%-head-sampled over untraced mapping
 * throughput must not drop below 0.98 — tracing promises a null pointer
 * test per untraced read and two clock reads per stage on traced ones.
 * The every-read ratio is printed for context.
 */
int
guardTraceRun(const std::string& committed_path)
{
    int failures = 0;
    for (const char* input_set : {"A-human", "B-yeast"}) {
        const Workload& wl = workload(input_set);
        MappingPass off(wl);
        const stats::PairedRatio sampled = tracedOff(wl, off, 100);
        const stats::PairedRatio every = tracedOff(wl, off, 1);
        std::printf("perf-guard-trace %s: 1%%-sampled/off throughput %s "
                    "(floor 0.98; committed %.4f); every-read/off %s "
                    "(context)\n",
                    input_set, describe(sampled).c_str(),
                    committedValue(committed_path,
                                   {"results", input_set,
                                    "trace_1pct_off_ratio", "median"}),
                    describe(every).c_str());
        if (sampled.median() < 0.98) {
            std::fprintf(stderr,
                         "FAIL: request tracing at 1%% sampling costs "
                         ">2%% of mapping throughput on %s (median ratio "
                         "%.4f)\n",
                         input_set, sampled.median());
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
        MappingPass pass(wl);
        const double per_read = bytesAndAllocsPerUnit(pass).second;
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

    // One quick pass on the A analog: fast enough for CTest, long enough
    // that a >20% kernel regression is visible in the logged reads/sec,
    // with hard failures only on machine-independent invariants.
    const Workload& wl = workload("A-human");
    MappingPass map_pass(wl);
    const double map_seconds = map_pass.run();
    const double map_bytes = bytesAndAllocsPerUnit(map_pass).first;
    ExtendPass ext_pass(wl);
    const double ext_seconds = ext_pass.run();
    const auto [ext_bytes, ext_allocs] = bytesAndAllocsPerUnit(ext_pass);
    const stats::LatencyHistogram& latency = map_pass.state().tally.latency;
    std::printf("perf-smoke A-human: %.0f reads/s, %.1f B/read, "
                "hit %.3f, extend %.0f/s, %.1f B/extend, extend hit %.3f\n",
                static_cast<double>(map_pass.workPerPass()) / map_seconds,
                map_bytes, map_pass.state().totalStats().hitRate(),
                static_cast<double>(ext_pass.workPerPass()) / ext_seconds,
                ext_bytes, ext_pass.hitRate());
    std::printf("perf-smoke A-human latency: p50 %s, p99 %s, p999 %s\n",
                stats::formatNanos(latency.p50()).c_str(),
                stats::formatNanos(latency.p99()).c_str(),
                stats::formatNanos(latency.p999()).c_str());
    if (ext_bytes != 0.0 || ext_allocs != 0.0) {
        std::fprintf(stderr,
                     "FAIL: steady-state extend loop allocates "
                     "(%.1f bytes, %.2f allocs per extend); the kernel "
                     "must be allocation-free\n",
                     ext_bytes, ext_allocs);
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
            std::fprintf(stderr, "bench_hotpath: unknown argument %s\n",
                         argv[i]);
            return 2;
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

    try {
        writeRecord(out_path,
                    baseline_path.empty() ? out_path : baseline_path, label);
    } catch (const mg::util::Error& e) {
        std::fprintf(stderr, "bench_hotpath: %s\n", e.what());
        return 1;
    }
    return 0;
}
