/**
 * @file
 * Flight recorder: a fixed-size per-worker ring of the last N reads each
 * worker touched — read index, pipeline stage, and the time the stage was
 * entered.  End-of-run summaries say *how much* work degraded; the flight
 * recorder says *which reads were on the operating table* when a watchdog
 * cancellation, runGuarded quarantine, or fatal signal hit, turning "a
 * batch stalled" into "read 48123 sat in extend for 9.7 s".
 *
 * Hot-path cost is three relaxed atomic stores per stage change.  Every
 * slot field is an atomic with single-writer semantics (only the owning
 * worker writes its ring) so the watchdog thread and the crash handler can
 * read a ring mid-flight without a data race.  A reader can observe a slot
 * mid-update (index from the new read, stage from the old); that torn view
 * is acceptable for a diagnostic dump and never corrupts memory.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perf/profiler.h"
#include "util/timer.h"

namespace mg::obs {

/**
 * What a flight slot shows.  The ring's mapping stages are the
 * perf::Stage values themselves; the lifecycle marks sit past them.
 */
enum class ReadStage : uint8_t
{
    Cluster = static_cast<uint8_t>(perf::Stage::ClusterSeeds),
    Process = static_cast<uint8_t>(perf::Stage::ProcessUntilThresholdC),
    Extend = static_cast<uint8_t>(perf::Stage::Extend),
    Idle = static_cast<uint8_t>(perf::kStages), // slot never used
    Start,  // read picked up, before clustering
    Rescue, // mate rescue, before its seeds are clustered
    Done    // mapping finished
};

/**
 * The ring stage a mapping stage shows as, or Idle for the stages the
 * ring does not track: seeding stays "start" and post-processing stays
 * in the last stage entered.
 */
constexpr ReadStage
flightStage(perf::Stage stage)
{
    switch (stage) {
    case perf::Stage::ClusterSeeds:
    case perf::Stage::ProcessUntilThresholdC:
    case perf::Stage::Extend: return static_cast<ReadStage>(stage);
    default: return ReadStage::Idle;
    }
}

const char* stageName(ReadStage stage);

/** One ring slot decoded for a report. */
struct FlightEntry
{
    uint64_t readIndex = 0;
    ReadStage stage = ReadStage::Idle;
    uint64_t stageEnterNanos = 0;
    /** Request trace id the read belonged to (0 = untraced). */
    uint64_t traceId = 0;
};

class FlightRecorder
{
  public:
    static constexpr size_t kDefaultRingSize = 16;

    /** One worker's ring; the worker is the only writer. */
    class Ring
    {
      public:
        explicit Ring(size_t size) : slots_(size) {}

        /** Start tracking a read: claims the next slot. */
        void begin(uint64_t read_index);

        /**
         * Attribute subsequent begin() calls to a request trace id
         * (0 = untraced).  Set once per request by the serving layer so
         * stall and crash dumps name the trace, not just the read.
         */
        void
        setTrace(uint64_t trace_id)
        {
            currentTrace_.store(trace_id, std::memory_order_relaxed);
        }

        /** Record a stage change, entered at `now_nanos`, for the read
         *  begin() last claimed. */
        void stage(ReadStage s, uint64_t now_nanos = util::nowNanos());

        /** Mark the current read finished. */
        void done() { stage(ReadStage::Done); }

        size_t size() const { return slots_.size(); }

        /** Newest-first decoded entries; skips never-used slots. */
        std::vector<FlightEntry> snapshot() const;

        /**
         * Allocation-free slot access for the crash handler (async-
         * signal-safe).  `head()` is the total begin() count; slot i of
         * the newest-first order is decodeSlot((head() - 1 - i) % size()).
         */
        uint64_t
        head() const
        {
            return head_.load(std::memory_order_acquire);
        }

        FlightEntry
        decodeSlot(uint64_t slot_index) const
        {
            const Slot& slot = slots_[slot_index];
            FlightEntry entry;
            entry.readIndex =
                slot.readIndex.load(std::memory_order_relaxed);
            entry.stage = static_cast<ReadStage>(
                slot.stage.load(std::memory_order_relaxed));
            entry.stageEnterNanos =
                slot.enterNanos.load(std::memory_order_relaxed);
            entry.traceId = slot.traceId.load(std::memory_order_relaxed);
            return entry;
        }

      private:
        struct Slot
        {
            std::atomic<uint64_t> readIndex{0};
            std::atomic<uint8_t> stage{
                static_cast<uint8_t>(ReadStage::Idle)};
            std::atomic<uint64_t> enterNanos{0};
            std::atomic<uint64_t> traceId{0};
        };

        std::vector<Slot> slots_;
        std::atomic<uint64_t> head_{0};         // total begin() calls
        std::atomic<uint64_t> currentTrace_{0}; // stamped into begin()
    };

    explicit FlightRecorder(size_t workers,
                            size_t ring_size = kDefaultRingSize);

    Ring* ring(size_t worker) { return rings_[worker].get(); }
    const Ring* ring(size_t worker) const { return rings_[worker].get(); }
    size_t workers() const { return rings_.size(); }

    /** Newest-first entries of one worker's ring. */
    std::vector<FlightEntry>
    snapshot(size_t worker) const
    {
        return rings_[worker]->snapshot();
    }

    /**
     * Human-readable multi-worker report.  `now_nanos` anchors the "in
     * stage for" ages; `read_name` (optional) maps a read index to its
     * FASTQ name.
     */
    std::string
    report(uint64_t now_nanos,
           const std::function<std::string(uint64_t)>& read_name = {}) const;

  private:
    std::vector<std::unique_ptr<Ring>> rings_;
};

/** Render one worker's snapshot (shared by report() and dump sites). */
std::string formatFlightEntries(const std::vector<FlightEntry>& entries,
                                uint64_t now_nanos);

/**
 * Install SIGSEGV/SIGBUS/SIGFPE/SIGABRT handlers that dump the recorder
 * to stderr with async-signal-safe calls only (write + clock_gettime),
 * then re-raise with the default disposition.  Pass nullptr to uninstall.
 * One recorder at a time, process-wide.
 */
void installCrashHandler(const FlightRecorder* recorder);

} // namespace mg::obs
