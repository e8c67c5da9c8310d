#include "giraffe/checkpoint_run.h"

#include <algorithm>
#include <utility>

#include "io/gaf.h"
#include "util/common.h"
#include "util/timer.h"

namespace mg::giraffe {

namespace {

/** The tally counts a shard delta persists, and its field for each. */
constexpr std::pair<obs::MapCount, uint64_t io::ShardStatsDelta::*>
    kDeltaCounts[] = {
        {obs::MapCount::DegradedDeadline, &io::ShardStatsDelta::deadlineHits},
        {obs::MapCount::DegradedStepCap, &io::ShardStatsDelta::stepCapHits},
        {obs::MapCount::DegradedLookupCap, &io::ShardStatsDelta::lookupCapHits},
        {obs::MapCount::DegradedWatchdog,
         &io::ShardStatsDelta::watchdogCancels},
        {obs::MapCount::GbwtLookups, &io::ShardStatsDelta::cacheLookups},
        {obs::MapCount::GbwtHits, &io::ShardStatsDelta::cacheHits},
        {obs::MapCount::GbwtDecodes, &io::ShardStatsDelta::cacheDecodes},
        {obs::MapCount::GbwtRehashes, &io::ShardStatsDelta::cacheRehashes},
        {obs::MapCount::GbwtProbes, &io::ShardStatsDelta::cacheProbes},
};

/** Stats delta of one freshly mapped shard. */
io::ShardStatsDelta
deltaOf(const map::Tally& tally)
{
    io::ShardStatsDelta delta;
    for (const auto& [count, field] : kDeltaCounts) {
        delta.*field = tally[count];
    }
    return delta;
}

void
accumulateDelta(map::Tally& tally, const io::ShardStatsDelta& delta)
{
    for (const auto& [count, field] : kDeltaCounts) {
        tally[count] += delta.*field;
    }
}

} // namespace

CheckpointRunResult
runCheckpointed(const ParentEmulator& parent, const map::ReadSet& reads,
                const CheckpointRunParams& params)
{
    MG_CHECK(!reads.pairedEnd,
             "checkpointed runs support unpaired read sets only (pairing "
             "needs every mate mapped before it runs)");
    MG_CHECK(params.shardReads > 0, "shardReads must be positive");
    const uint64_t n = reads.size();

    util::WallTimer timer;
    CheckpointRunResult result;

    io::CheckpointState state;
    util::Status status = io::loadCheckpoint(params.dir, state);
    if (!status.ok()) {
        util::throwStatus(std::move(status)); // corrupt manifest: fatal
    }
    if (!state.manifest.shards.empty() || state.droppedShards > 0) {
        MG_CHECK(state.manifest.totalReads == n,
                 "checkpoint in ", params.dir, " is for ",
                 state.manifest.totalReads, " reads, input has ", n);
    }
    result.droppedShards = state.droppedShards;

    io::CheckpointWriter writer(params.dir, n);
    // A fresh directory loads as an empty manifest pinned to 0 reads;
    // claim it for this run before adopting.
    state.manifest.totalReads = n;
    writer.adopt(state.manifest);

    // Durable GAF spans in read order (the manifest keeps them sorted and
    // non-overlapping); the gaps between them are what this run maps.
    struct Span
    {
        uint64_t begin;
        uint64_t end;
        std::string gaf;
    };
    std::vector<Span> spans;
    spans.reserve(state.shards.size());
    for (io::Shard& shard : state.shards) {
        result.resumedReads += shard.end - shard.begin;
        accumulateDelta(result.tally, shard.stats);
        spans.push_back(
            Span{ shard.begin, shard.end, std::move(shard.gaf) });
    }

    // Map every gap, one shard-sized chunk at a time, flushing each chunk
    // durably before starting the next — the work at risk at any instant
    // is bounded by one shard.
    auto map_chunk = [&](uint64_t begin, uint64_t end) {
        map::ReadSet chunk;
        chunk.reads.assign(reads.reads.begin() + static_cast<long>(begin),
                           reads.reads.begin() + static_cast<long>(end));
        ParentOutputs outputs =
            parent.run(chunk, nullptr, nullptr, params.hub);
        io::Shard shard;
        shard.begin = begin;
        shard.end = end;
        shard.gaf = io::formatGaf(outputs.alignments, chunk,
                                  parent.mapper().graph());
        shard.stats = deltaOf(outputs.tally);
        writer.append(shard);

        result.mappedReads += end - begin;
        // Reads this process mapped count whole, recycles and latency
        // included; only restored shards are limited to their delta.
        result.tally.accumulate(outputs.tally);
        // Rebase failure indices to the full read set.
        for (sched::BatchFailure failure : outputs.failures.batches) {
            failure.begin += begin;
            failure.end += begin;
            result.failures.batches.push_back(std::move(failure));
        }
        for (sched::ItemFailure item : outputs.failures.poisoned) {
            item.index += begin;
            result.failures.poisoned.push_back(std::move(item));
        }
        result.failures.retries += outputs.failures.retries;
        result.failures.watchdogCancels +=
            outputs.failures.watchdogCancels;
        spans.push_back(Span{ begin, end, std::move(shard.gaf) });
    };

    // Graceful stop is observed between shard flushes: the shard in
    // progress completes (and lands durably), later ones never start.
    auto stop_requested = [&params] {
        return params.stopFlag != nullptr &&
               params.stopFlag->load(std::memory_order_acquire);
    };
    uint64_t cursor = 0;
    for (const io::ManifestEntry& entry : state.manifest.shards) {
        for (uint64_t b = cursor;
             b < entry.begin && !stop_requested();
             b += params.shardReads) {
            map_chunk(b, std::min(b + params.shardReads, entry.begin));
        }
        if (stop_requested()) {
            break;
        }
        cursor = entry.end;
    }
    for (uint64_t b = cursor; b < n && !stop_requested();
         b += params.shardReads) {
        map_chunk(b, std::min(b + params.shardReads, n));
    }
    result.stopped = stop_requested();

    // Stitch: spans tile [0, n) exactly once; concatenating them in range
    // order is the uninterrupted run's GAF, byte for byte.  A stopped run
    // has durable holes instead — return the contiguous prefix (partial
    // by contract) and leave the rest to a later resume.
    std::sort(spans.begin(), spans.end(),
              [](const Span& a, const Span& b) { return a.begin < b.begin; });
    uint64_t covered = 0;
    for (const Span& span : spans) {
        if (result.stopped && span.begin != covered) {
            break; // first hole of a stopped run ends the prefix
        }
        MG_CHECK(span.begin == covered,
                 "GAF span coverage gap at read ", covered);
        covered = span.end;
        result.gaf += span.gaf;
    }
    MG_CHECK(result.stopped || covered == n, "GAF spans cover ", covered,
             " of ", n, " reads");

    if (params.hub != nullptr) {
        const io::CheckpointWriter::FlushStats fs = writer.flushStats();
        obs::Registry::ThreadSlab* slab = params.hub->slab(0);
        const obs::CheckpointMetricIds& ids = params.hub->checkpoint();
        slab->add(ids.flushes, fs.flushes);
        slab->add(ids.flushBytes, fs.bytes);
        slab->add(ids.flushNanos, fs.nanos);
    }

    result.wallSeconds = timer.seconds();
    return result;
}

} // namespace mg::giraffe
