#include "map/tally.h"

#include <utility>

#include "util/common.h"

namespace mg::map {

namespace {

using obs::MapCount;
using resilience::CancelReason;

static_assert(static_cast<int>(MapCount::DegradedStepCap) -
                          static_cast<int>(MapCount::DegradedDeadline) ==
                      static_cast<int>(CancelReason::StepCap) -
                          static_cast<int>(CancelReason::Deadline) &&
                  static_cast<int>(MapCount::DegradedWatchdog) -
                          static_cast<int>(MapCount::DegradedDeadline) ==
                      static_cast<int>(CancelReason::Watchdog) -
                          static_cast<int>(CancelReason::Deadline),
              "Degraded* counts follow CancelReason order");

/** The Gbwt* counts and the CacheStats field each one holds. */
constexpr std::pair<MapCount, uint64_t gbwt::CacheStats::*> kCacheCounts[] = {
    {MapCount::GbwtLookups, &gbwt::CacheStats::lookups},
    {MapCount::GbwtHits, &gbwt::CacheStats::hits},
    {MapCount::GbwtDecodes, &gbwt::CacheStats::decodes},
    {MapCount::GbwtRehashes, &gbwt::CacheStats::rehashes},
    {MapCount::GbwtProbes, &gbwt::CacheStats::probes},
    {MapCount::GbwtRecycles, &gbwt::CacheStats::recycles},
};

} // namespace

void
Tally::countDegraded(CancelReason reason)
{
    if (reason != CancelReason::None) {
        ++counts[static_cast<size_t>(MapCount::DegradedDeadline) +
                 static_cast<size_t>(reason) -
                 static_cast<size_t>(CancelReason::Deadline)];
    }
}

void
Tally::addCache(const gbwt::CacheStats& stats)
{
    for (const auto& [count, field] : kCacheCounts) {
        (*this)[count] += stats.*field;
    }
}

gbwt::CacheStats
Tally::cache() const
{
    gbwt::CacheStats stats;
    for (const auto& [count, field] : kCacheCounts) {
        stats.*field = (*this)[count];
    }
    return stats;
}

uint64_t
Tally::degradedReads() const
{
    return (*this)[MapCount::DegradedDeadline] +
           (*this)[MapCount::DegradedStepCap] +
           (*this)[MapCount::DegradedLookupCap] +
           (*this)[MapCount::DegradedWatchdog];
}

void
Tally::accumulate(const Tally& other)
{
    for (size_t c = 0; c < counts.size(); ++c) {
        counts[c] += other.counts[c];
    }
    latency.merge(other.latency);
}

Tally
Tally::since(const Tally& earlier) const
{
    Tally delta;
    for (size_t c = 0; c < counts.size(); ++c) {
        delta.counts[c] = counts[c] - earlier.counts[c];
    }
    delta.latency = latency.since(earlier.latency);
    return delta;
}

std::string
Tally::summary() const
{
    std::string out = util::cat(
        degradedReads(), " degraded (deadline ",
        (*this)[MapCount::DegradedDeadline], ", step-cap ",
        (*this)[MapCount::DegradedStepCap], ", lookup-cap ",
        (*this)[MapCount::DegradedLookupCap], ", watchdog ",
        (*this)[MapCount::DegradedWatchdog], ")");
    if (latency.count() > 0) {
        out += util::cat("; read latency p50 ",
                         stats::formatNanos(latency.p50()), ", p99 ",
                         stats::formatNanos(latency.p99()), ", p999 ",
                         stats::formatNanos(latency.p999()));
    }
    return out;
}

} // namespace mg::map
