/**
 * @file
 * Wall-clock timing.  All experiment harnesses report the paper's notion of
 * makespan (end-to-end wall clock), so a steady monotonic clock is used.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>

namespace mg::util {

/** Monotonic nanosecond timestamp (origin unspecified, steady). */
inline uint64_t
nowNanos()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch()).count());
}

/**
 * CPU time the calling thread has run, in nanoseconds.  Unlike the wall
 * clock it does not advance while the thread waits for a core, so an A/B
 * comparison timed on it is not skewed by other load on a shared host.
 */
inline uint64_t
threadCpuNanos()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

/** Simple start/stop wall timer reporting elapsed seconds. */
class WallTimer
{
  public:
    WallTimer() : start_(nowNanos()) {}

    /** Restart the timer. */
    void reset() { start_ = nowNanos(); }

    /** Seconds since construction or last reset. */
    double seconds() const
    {
        return static_cast<double>(nowNanos() - start_) * 1e-9;
    }

    /** Nanoseconds since construction or last reset. */
    uint64_t nanos() const { return nowNanos() - start_; }

  private:
    uint64_t start_;
};

} // namespace mg::util
