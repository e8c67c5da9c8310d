#include "giraffe/run_summary.h"

#include <cstdio>

#include "fault/fault.h"
#include "machine/host.h"
#include "obs/json.h"
#include "sched/scheduler.h"

namespace mg::giraffe {

namespace {

/**
 * Host-CPU block: the architecture and wide-ISA set of the machine that
 * produced the summary, so fleet-wide result files stay attributable.
 */
void
writeHostCpu(obs::JsonWriter& w)
{
    const machine::HostCpu& host = machine::hostCpu();
    w.key("cpu").beginObject();
    w.field("arch", host.arch);
    w.field("features", host.features);
    w.endObject();
}

/** Failure-isolation block, present in every summary. */
void
writeFailures(obs::JsonWriter& w, const sched::FailureReport& failures)
{
    w.key("failures").beginObject();
    w.field("retries", static_cast<uint64_t>(failures.retries));
    w.field("quarantined", static_cast<uint64_t>(failures.poisoned.size()));
    w.field("batch_failures",
            static_cast<uint64_t>(failures.batches.size()));
    w.field("watchdog_cancels",
            static_cast<uint64_t>(failures.watchdogCancels));
    w.endObject();
}

void
writeResilience(obs::JsonWriter& w, const map::Tally& tally)
{
    w.key("resilience").beginObject();
    w.field("deadline_hits", tally[obs::MapCount::DegradedDeadline]);
    w.field("step_cap_hits", tally[obs::MapCount::DegradedStepCap]);
    w.field("lookup_cap_hits", tally[obs::MapCount::DegradedLookupCap]);
    w.field("watchdog_cancels", tally[obs::MapCount::DegradedWatchdog]);
    w.key("read_latency_ns").beginObject();
    w.field("count", tally.latency.count());
    w.field("mean", tally.latency.meanNanos());
    w.field("p50", tally.latency.p50());
    w.field("p99", tally.latency.p99());
    w.field("p999", tally.latency.p999());
    w.endObject();
    w.endObject();
}

/**
 * Extension funnel: seeds walked, and chosen seeds skipped because an
 * earlier seed's extension already covered them.
 */
void
writeExtensionSeeds(obs::JsonWriter& w, const map::Tally& tally)
{
    w.key("extension_seeds").beginObject();
    w.field("attempted", tally[obs::MapCount::ExtensionsAttempted]);
    w.field("covered", tally[obs::MapCount::ExtensionsCovered]);
    w.endObject();
}

void
writeCache(obs::JsonWriter& w, const gbwt::CacheStats& stats)
{
    w.key("gbwt_cache").beginObject();
    w.field("lookups", stats.lookups);
    w.field("hits", stats.hits);
    w.field("hit_rate", stats.hitRate());
    w.field("decodes", stats.decodes);
    w.field("rehashes", stats.rehashes);
    w.field("probes", stats.probes);
    w.field("recycles", stats.recycles);
    w.endObject();
}

/**
 * Startup accounting: how the pangenome got into memory.  The section
 * list reports *logical* arena sizes (the bound structures, without the
 * container's page padding).
 */
void
writeIndexInfo(obs::JsonWriter& w, const io::IndexLoadInfo& index)
{
    w.key("index").beginObject();
    w.field("load_mode", io::loadModeName(index.mode));
    w.field("load_seconds", index.loadSeconds);
    w.field("file_bytes", index.fileBytes);
    w.field("mapped_bytes", index.mappedBytes);
    w.field("resident_bytes", index.residentBytes);
    w.field("heap_bytes", index.heapBytes);
    w.key("sections").beginObject();
    for (const auto& [name, bytes] : index.sections) {
        w.field(name, bytes);
    }
    w.endObject();
    w.endObject();
}

/** Opening fields of a batch-run summary: its kind and run shape. */
void
writeRunParams(obs::JsonWriter& w, const char* kind, const RunParams& params)
{
    w.field("kind", kind);
    w.field("scheduler", sched::schedulerName(params.scheduler));
    w.field("threads", static_cast<uint64_t>(params.numThreads));
    w.field("batch_size", static_cast<uint64_t>(params.batchSize));
}

/** Closing blocks of a batch-run summary, shared by parent and proxy. */
void
writeRunTotals(obs::JsonWriter& w, const RunTotals& totals,
               const io::IndexLoadInfo* index)
{
    if (index != nullptr) {
        writeIndexInfo(w, *index);
    }
    writeHostCpu(w);
    writeExtensionSeeds(w, totals.tally);
    writeCache(w, totals.tally.cache());
    writeResilience(w, totals.tally);
    writeFailures(w, totals.failures);
}

} // namespace

std::string
summaryJson(const ProxyOutputs& outputs, const ProxyParams& params,
            const io::IndexLoadInfo* index)
{
    obs::JsonWriter w;
    w.beginObject();
    writeRunParams(w, "proxy", params);
    w.field("cache_capacity",
            static_cast<uint64_t>(params.mapper.gbwtCacheCapacity));
    w.field("wall_seconds", outputs.wallSeconds);
    w.field("reads_mapped", outputs.readsMapped);
    uint64_t total_extensions = 0;
    for (const io::ReadExtensions& entry : outputs.extensions) {
        total_extensions += entry.extensions.size();
    }
    w.field("extensions", total_extensions);
    w.field("stopped", outputs.stopped);
    writeRunTotals(w, outputs, index);
    w.endObject();
    return w.str();
}

std::string
summaryJson(const ParentOutputs& outputs, const ParentParams& params,
            const io::IndexLoadInfo* index)
{
    obs::JsonWriter w;
    w.beginObject();
    writeRunParams(w, "parent", params);
    w.field("wall_seconds", outputs.wallSeconds);
    w.field("reads", static_cast<uint64_t>(outputs.alignments.size()));
    uint64_t mapped = 0;
    for (const Alignment& alignment : outputs.alignments) {
        if (alignment.mapped) {
            ++mapped;
        }
    }
    w.field("reads_mapped", mapped);
    w.field("stopped", outputs.stopped);
    if (!outputs.pairs.empty()) {
        uint64_t proper = 0;
        for (const PairResult& pair : outputs.pairs) {
            if (pair.properPair) {
                ++proper;
            }
        }
        w.key("pairing").beginObject();
        w.field("pairs", static_cast<uint64_t>(outputs.pairs.size()));
        w.field("proper", proper);
        w.field("rescue_attempts",
                static_cast<uint64_t>(outputs.rescue.attempted));
        w.field("rescue_hits",
                static_cast<uint64_t>(outputs.rescue.rescued));
        w.endObject();
    }
    writeRunTotals(w, outputs, index);
    w.endObject();
    return w.str();
}

std::string
summaryJson(const CheckpointRunResult& result,
            const CheckpointRunParams& params)
{
    obs::JsonWriter w;
    w.beginObject();
    w.field("kind", "checkpoint");
    w.field("dir", params.dir);
    w.field("shard_reads", params.shardReads);
    w.field("wall_seconds", result.wallSeconds);
    w.field("resumed_reads", result.resumedReads);
    w.field("mapped_reads", result.mappedReads);
    w.field("dropped_shards", result.droppedShards);
    w.field("gaf_bytes", static_cast<uint64_t>(result.gaf.size()));
    w.field("stopped", result.stopped);
    writeCache(w, result.tally.cache());
    writeResilience(w, result.tally);
    writeFailures(w, result.failures);
    w.endObject();
    return w.str();
}

std::vector<obs::MetricValue>
faultExtras()
{
    std::vector<obs::MetricValue> extras;
    for (const auto& [site, stats] : fault::allStats()) {
        obs::MetricValue hits;
        hits.name = "mg_fault_hits_total{site=\"" + site + "\"}";
        hits.help = "Times the fault site was evaluated.";
        hits.value = stats.hits;
        extras.push_back(std::move(hits));
        obs::MetricValue fires;
        fires.name = "mg_fault_fires_total{site=\"" + site + "\"}";
        fires.help = "Times the fault site injected its fault.";
        fires.value = stats.fires;
        extras.push_back(std::move(fires));
    }
    return extras;
}

void
printWatchdogEvent(const sched::WatchdogEvent& event,
                   const std::function<std::string(uint64_t)>& read_name)
{
    std::printf("watchdog cancel: worker %zu batch [%zu,%zu) stalled "
                "%.2f s\n",
                event.worker, event.batchBegin, event.batchEnd,
                static_cast<double>(event.stalledNanos) / 1e9);
    for (const obs::FlightEntry& entry : event.flight) {
        const double age =
            event.atNanos > entry.stageEnterNanos
                ? static_cast<double>(event.atNanos -
                                      entry.stageEnterNanos) / 1e9
                : 0.0;
        std::printf("  read %llu (%s): in %s for %.3f s\n",
                    static_cast<unsigned long long>(entry.readIndex),
                    read_name(entry.readIndex).c_str(),
                    obs::stageName(entry.stage), age);
    }
}

} // namespace mg::giraffe
