/**
 * @file
 * Per-read latency histogram with tail percentiles.  The mapping kernel's
 * per-read work is heavy-tailed (a few seed-dense reads run orders of
 * magnitude longer than the median), so the mean hides exactly the reads
 * the resilience layer exists to bound; p99/p999 are the numbers that
 * matter for a deadline-bounded service.
 *
 * Log2-bucketed: bucket b counts samples in [2^(b-1), 2^b) nanoseconds,
 * so record() is a handful of instructions with no allocation (the hot
 * mapping loop records every read) and percentiles interpolate linearly
 * inside a bucket — at worst 2x resolution error on the tail, which is
 * ample for a summary line, at a fixed 520-byte footprint that merges
 * across worker threads with 64 additions.
 */
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace mg::stats {

/** Fixed-size log2 histogram of nanosecond durations. */
class LatencyHistogram
{
  public:
    static constexpr int kBuckets = 64;

    /** Count one sample (0 ns lands in bucket 0). */
    void
    record(uint64_t nanos)
    {
        ++buckets_[bucketOf(nanos)];
        ++count_;
        sumNanos_ += nanos;
    }

    /** Fold another histogram in (per-thread roll-ups). */
    void merge(const LatencyHistogram& other);

    /** The samples recorded since `earlier`, an older copy of this
     *  histogram (bucket-wise difference). */
    LatencyHistogram since(const LatencyHistogram& earlier) const;

    uint64_t count() const { return count_; }

    /** Mean in nanoseconds (0 for an empty histogram). */
    double
    meanNanos() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sumNanos_) /
                                 static_cast<double>(count_);
    }

    /**
     * Percentile in nanoseconds, p in [0, 1]; linear interpolation within
     * the containing bucket.  0 for an empty histogram.
     */
    double percentileNanos(double p) const;

    double p50() const { return percentileNanos(0.50); }
    double p99() const { return percentileNanos(0.99); }
    double p999() const { return percentileNanos(0.999); }

    /** Reset to empty. */
    void clear();

    /** Raw log2 buckets (bucket b counts [2^(b-1), 2^b) ns samples). */
    const std::array<uint64_t, kBuckets>& rawBuckets() const
    {
        return buckets_;
    }

    uint64_t sumNanos() const { return sumNanos_; }

    /** Rebuild from raw parts (exporter round-trips, atomic slabs). */
    static LatencyHistogram
    fromRaw(const std::array<uint64_t, kBuckets>& buckets, uint64_t count,
            uint64_t sum_nanos)
    {
        LatencyHistogram h;
        h.buckets_ = buckets;
        h.count_ = count;
        h.sumNanos_ = sum_nanos;
        return h;
    }

    /** Upper bound (ns) of bucket b, matching bucketOf(). */
    static uint64_t
    bucketUpperNanos(int bucket)
    {
        return bucket >= kBuckets - 1 ? UINT64_MAX : (uint64_t{1} << bucket);
    }

  private:
    static int
    bucketOf(uint64_t nanos)
    {
        int bucket = 0;
        while (nanos > 1 && bucket < kBuckets - 1) {
            nanos >>= 1;
            ++bucket;
        }
        return bucket;
    }

    std::array<uint64_t, kBuckets> buckets_{};
    uint64_t count_ = 0;
    uint64_t sumNanos_ = 0;
};

/** Human-friendly duration ("512 ns", "3.2 us", "1.5 ms", "2.1 s"). */
std::string formatNanos(double nanos);

} // namespace mg::stats
