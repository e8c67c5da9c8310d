#include "stats/latency.h"

#include <cmath>
#include <cstdio>

namespace mg::stats {

void
LatencyHistogram::merge(const LatencyHistogram& other)
{
    for (int b = 0; b < kBuckets; ++b) {
        buckets_[b] += other.buckets_[b];
    }
    count_ += other.count_;
    sumNanos_ += other.sumNanos_;
}

LatencyHistogram
LatencyHistogram::since(const LatencyHistogram& earlier) const
{
    LatencyHistogram delta;
    for (int b = 0; b < kBuckets; ++b) {
        delta.buckets_[b] = buckets_[b] - earlier.buckets_[b];
    }
    delta.count_ = count_ - earlier.count_;
    delta.sumNanos_ = sumNanos_ - earlier.sumNanos_;
    return delta;
}

void
LatencyHistogram::clear()
{
    buckets_.fill(0);
    count_ = 0;
    sumNanos_ = 0;
}

double
LatencyHistogram::percentileNanos(double p) const
{
    if (count_ == 0) {
        return 0.0;
    }
    if (p < 0.0) {
        p = 0.0;
    }
    if (p > 1.0) {
        p = 1.0;
    }
    // Rank of the requested sample, 1-based; ceil so p=1 is the max.
    double target = p * static_cast<double>(count_);
    uint64_t rank = static_cast<uint64_t>(std::ceil(target));
    if (rank == 0) {
        rank = 1;
    }
    uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
        if (buckets_[b] == 0) {
            continue;
        }
        if (seen + buckets_[b] >= rank) {
            // Interpolate linearly across the bucket's value range.
            double lo = b == 0 ? 0.0 : std::ldexp(1.0, b - 1);
            double hi = std::ldexp(1.0, b);
            double within = static_cast<double>(rank - seen) /
                            static_cast<double>(buckets_[b]);
            return lo + (hi - lo) * within;
        }
        seen += buckets_[b];
    }
    return std::ldexp(1.0, kBuckets - 1); // unreachable with count_ > 0
}

std::string
formatNanos(double nanos)
{
    char buf[32];
    if (nanos < 1e3) {
        std::snprintf(buf, sizeof(buf), "%.0f ns", nanos);
    } else if (nanos < 1e6) {
        std::snprintf(buf, sizeof(buf), "%.1f us", nanos * 1e-3);
    } else if (nanos < 1e9) {
        std::snprintf(buf, sizeof(buf), "%.1f ms", nanos * 1e-6);
    } else {
        std::snprintf(buf, sizeof(buf), "%.2f s", nanos * 1e-9);
    }
    return buf;
}

} // namespace mg::stats
