/**
 * @file
 * Region-based instrumentation, reproducing the paper's custom profiling
 * header (Section III): designated code regions are timestamped per thread
 * with negligible overhead, all records are kept in memory during the run,
 * and everything is aggregated/dumped only at the end of execution.
 *
 * The paper stores records in a UThash hash table keyed by region name;
 * here the regions are a fixed enum of the mapping stages and each thread
 * appends fixed-size records to its own buffer, which is equivalent and
 * allocation-free on the hot path after warm-up.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mg::perf {

/**
 * The mapping pipeline's stages: the paper's instrumented regions
 * (Figures 2 and 3).  Extend nests inside ProcessUntilThresholdC, once
 * per processed cluster.  On the serve path, Align also covers the GAF
 * line each alignment is formatted into.
 */
enum class Stage : uint8_t
{
    FindSeeds,
    ClusterSeeds,
    ProcessUntilThresholdC,
    Extend,
    ScoreExtensions,
    Align,
};

inline constexpr size_t kStages = static_cast<size_t>(Stage::Align) + 1;

/** The paper's region name of a stage ("find_seeds", ...). */
const char* regionName(Stage stage);

/** One timed interval of one stage on one thread. */
struct RegionRecord
{
    Stage stage;
    uint64_t startNanos;
    uint64_t endNanos;
};

/** Aggregate of one stage on one thread. */
struct RegionTotal
{
    Stage stage;
    size_t thread;
    uint64_t totalNanos = 0;
    uint64_t invocations = 0;
};

/**
 * Collects timed region records across threads.
 *
 * Threads call registerThread() once to obtain a ThreadLog, which the
 * mapper's stage hook (map::MapperState::StageScope) appends to.  A
 * disabled profiler (the default for production mapping runs) hands out
 * no logs, so nothing is recorded.
 */
class Profiler
{
  public:
    /** Per-thread append-only record buffer. */
    class ThreadLog
    {
      public:
        explicit ThreadLog(size_t index) : index_(index)
        {
            records_.reserve(1 << 12);
        }

        void
        add(Stage stage, uint64_t start_nanos, uint64_t end_nanos)
        {
            records_.push_back(RegionRecord{stage, start_nanos, end_nanos});
        }

        size_t index() const { return index_; }
        const std::vector<RegionRecord>& records() const { return records_; }

      private:
        size_t index_;
        std::vector<RegionRecord> records_;
    };

    explicit Profiler(bool enabled = true) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Create (or fetch) the log for a worker thread slot. */
    ThreadLog* registerThread(size_t thread_index);

    /** Number of thread slots seen so far. */
    size_t numThreads() const;

    /** Aggregate per (stage, thread) totals over all records. */
    std::vector<RegionTotal> aggregate() const;

    /**
     * Total time of one stage summed over all threads, in seconds.
     * Returns 0 if the stage was never entered.
     */
    double regionSeconds(Stage stage) const;

    /** Dump raw records as CSV (thread,region,start_ns,end_ns) to a file. */
    void dumpCsv(const std::string& path) const;

    /**
     * Visit every raw record (thread index + record), in per-thread
     * order.  This is how exporters (obs trace writer) consume the log
     * without copying it.
     */
    void forEachRecord(
        const std::function<void(size_t, const RegionRecord&)>& fn) const;

    /** Forget all records and thread logs. */
    void clearRecords();

  private:
    bool enabled_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<ThreadLog>> logs_;
};

} // namespace mg::perf
