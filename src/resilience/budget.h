/**
 * @file
 * Cooperative cancellation and work budgets — the deadline layer of
 * mg::resilience.  The mapping kernel has heavy per-read work variance: a
 * few seed-dense reads explore orders of magnitude more walk states (and
 * GBWT record decodes) than the median, and a production service cannot
 * let one of them hang a worker.  Giraffe itself copes with "give up"
 * heuristics; this layer makes giving up a first-class, *bounded*
 * operation:
 *
 *  - WorkBudget       run-level limits: a wall-clock deadline plus
 *                     deterministic per-read caps on extension walk steps
 *                     and GBWT lookups.
 *  - CancelToken      a shared flag a supervisor (the sched watchdog) sets
 *                     to cancel a worker's current batch cooperatively.
 *  - ReadBudget       the per-worker tracker threaded through
 *                     Mapper/Extender: the extend and cluster loops charge
 *                     work to it and stop at the next *cancellation point*
 *                     when the budget is exhausted or the token fires.
 *
 * Cancellation points sit only at walk-state boundaries (between graph
 * nodes in the extension DFS) and between clusters/seeds — never inside a
 * node's SWAR compare run — so a cancelled read still emits its
 * best-so-far extensions, trimmed exactly as the walk-state cap trims
 * them, and an extension can never be torn mid-node.  Step and lookup
 * caps are deterministic (a pure function of the work done); the
 * wall-clock deadline is checked every kDeadlineCheckPeriod steps to keep
 * clock reads off the per-node path.
 */
#pragma once

#include <atomic>
#include <cstdint>

#include "util/timer.h"

namespace mg::resilience {

/** Why a read (or a whole run) was degraded.  Order is severity-neutral;
 *  the first cause observed wins and is what the GAF tag reports. */
enum class CancelReason : uint8_t
{
    None = 0,
    /** The run's wall-clock deadline passed. */
    Deadline,
    /** The per-read extension-step cap was reached. */
    StepCap,
    /** The per-read GBWT-lookup cap was reached. */
    LookupCap,
    /** The watchdog cancelled the worker's batch. */
    Watchdog,
};

/** Short stable name ("deadline", "step-cap", ...) used in GAF dg: tags
 *  and run summaries. */
const char* cancelReasonName(CancelReason reason);

/**
 * Shared cooperative cancellation flag.  One writer semantics: the first
 * cancel() wins and pins the reason; later calls are no-ops.  Readers pay
 * one relaxed atomic load, so checking the token inside the extend loop
 * is effectively free.
 */
class CancelToken
{
  public:
    /** Request cancellation; the first reason to land sticks. */
    void
    cancel(CancelReason reason)
    {
        uint8_t expected = 0;
        state_.compare_exchange_strong(expected,
                                       static_cast<uint8_t>(reason),
                                       std::memory_order_release,
                                       std::memory_order_relaxed);
    }

    bool
    cancelled() const
    {
        return state_.load(std::memory_order_relaxed) != 0;
    }

    CancelReason
    reason() const
    {
        return static_cast<CancelReason>(
            state_.load(std::memory_order_acquire));
    }

    /** Re-arm for the next batch (worker-side, at a batch boundary). */
    void reset() { state_.store(0, std::memory_order_release); }

  private:
    std::atomic<uint8_t> state_{0};
};

/** Run-level work limits.  Zero means unlimited for every field. */
struct WorkBudget
{
    /** Wall-clock budget for the whole mapping run, in seconds. */
    double wallSeconds = 0.0;
    /** Per-read cap on extension walk states explored. */
    uint64_t maxExtendSteps = 0;
    /** Per-read cap on GBWT record lookups. */
    uint64_t maxGbwtLookups = 0;

    bool
    unlimited() const
    {
        return wallSeconds <= 0.0 && maxExtendSteps == 0 &&
               maxGbwtLookups == 0;
    }
};

/**
 * Per-worker budget tracker.  Owned by MapperState; the Extender reaches
 * it through ExtendScratch.  All methods are single-threaded except the
 * token, which the watchdog may set concurrently.
 */
class ReadBudget
{
  public:
    /** Steps between wall-clock deadline checks (amortizes clock reads). */
    static constexpr uint64_t kDeadlineCheckPeriod = 64;

    /**
     * Bind run-level limits.  `deadline_nanos` is the absolute steady
     * timestamp (util::nowNanos domain) after which reads degrade; 0
     * disables the deadline.  The token may be null.
     */
    void
    configure(const WorkBudget& budget, uint64_t deadline_nanos,
              CancelToken* token)
    {
        maxSteps_ = budget.maxExtendSteps;
        maxLookups_ = budget.maxGbwtLookups;
        deadlineNanos_ = deadline_nanos;
        token_ = token;
        active_ = maxSteps_ != 0 || maxLookups_ != 0 ||
                  deadlineNanos_ != 0 || token_ != nullptr;
    }

    /** Start a new read: reset counters and re-sample the cancel state. */
    void
    beginRead()
    {
        steps_ = 0;
        lookups_ = 0;
        reason_ = CancelReason::None;
        if (!active_) {
            return;
        }
        // A deadline that already passed, or a token the watchdog already
        // fired, degrades the read from its first cancellation point.
        if (token_ != nullptr && token_->cancelled()) {
            reason_ = token_->reason();
        } else if (deadlineNanos_ != 0 &&
                   util::nowNanos() >= deadlineNanos_) {
            reason_ = CancelReason::Deadline;
        }
    }

    /**
     * Charge one extension walk state.  Returns true when the read must
     * stop at this cancellation point (budget exhausted, deadline passed,
     * or token cancelled).
     */
    bool
    chargeStep()
    {
        if (!active_) {
            return false;
        }
        ++steps_;
        if (reason_ != CancelReason::None) {
            return true;
        }
        if (maxSteps_ != 0 && steps_ > maxSteps_) {
            reason_ = CancelReason::StepCap;
            return true;
        }
        if (maxLookups_ != 0 && lookups_ > maxLookups_) {
            reason_ = CancelReason::LookupCap;
            return true;
        }
        if (steps_ % kDeadlineCheckPeriod == 0) {
            if (token_ != nullptr && token_->cancelled()) {
                reason_ = token_->reason();
                return true;
            }
            if (deadlineNanos_ != 0 && util::nowNanos() >= deadlineNanos_) {
                reason_ = CancelReason::Deadline;
                return true;
            }
        }
        return false;
    }

    /** Charge one GBWT record lookup (cap enforced at the next step). */
    void
    chargeLookup()
    {
        if (active_) {
            ++lookups_;
        }
    }

    /** True once any limit fired for the current read. */
    bool exhausted() const { return reason_ != CancelReason::None; }

    /** Why the current read was cut short (None when it was not). */
    CancelReason reason() const { return reason_; }

    uint64_t steps() const { return steps_; }
    uint64_t lookups() const { return lookups_; }

    /** True when any limit, deadline, or token is configured. */
    bool active() const { return active_; }

  private:
    uint64_t maxSteps_ = 0;
    uint64_t maxLookups_ = 0;
    uint64_t deadlineNanos_ = 0;
    CancelToken* token_ = nullptr;
    bool active_ = false;

    uint64_t steps_ = 0;
    uint64_t lookups_ = 0;
    CancelReason reason_ = CancelReason::None;
};

} // namespace mg::resilience
