/**
 * @file
 * The per-worker tally: every count the mapper keeps about the reads it
 * maps — the seed -> cluster -> extension funnel, degraded reads by
 * reason, the CachedGBWT statistics — plus the read-latency histogram.
 * Mapper::mapFromSeeds adds each read once; the parent's rescue tail adds
 * its rescue counts.  A copy is a snapshot, so every reader is a copy or
 * a difference: a batch rollback restores a copy, the live metrics take
 * since(last flush), and run totals and summaries accumulate the workers'
 * tallies.  The count vocabulary (obs::MapCount) and its metric names
 * live in obs/hub.h, where the hub registers one counter per count.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "gbwt/cached_gbwt.h"
#include "obs/hub.h"
#include "resilience/budget.h"
#include "stats/latency.h"

namespace mg::map {

struct Tally
{
    std::array<uint64_t, obs::kMapCounts> counts{};
    stats::LatencyHistogram latency;

    uint64_t&
    operator[](obs::MapCount c)
    {
        return counts[static_cast<size_t>(c)];
    }

    uint64_t
    operator[](obs::MapCount c) const
    {
        return counts[static_cast<size_t>(c)];
    }

    /** Count one read degraded by `reason` (None is a no-op). */
    void countDegraded(resilience::CancelReason reason);

    /** Add one read's cache statistics to the Gbwt* counts. */
    void addCache(const gbwt::CacheStats& stats);

    /** The Gbwt* counts as CacheStats (hit rate, summaries). */
    gbwt::CacheStats cache() const;

    /** Reads degraded for any reason. */
    uint64_t degradedReads() const;

    /** Fold another tally in (per-worker roll-ups). */
    void accumulate(const Tally& other);

    /** What was counted since `earlier`, an older copy of this tally. */
    Tally since(const Tally& earlier) const;

    /** One-line degradation summary ("3 degraded (deadline 1, ...), read
     *  latency p50 ..."). */
    std::string summary() const;
};

} // namespace mg::map
