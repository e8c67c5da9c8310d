/**
 * @file
 * Deterministic, seedable fault injection (the repo's failure-model test
 * harness).  Production code declares *fault points* — named sites such as
 * "io.mgz.load" or "sched.worker" — and tests (or a CLI flag) *arm*
 * those sites with a Spec describing what should go wrong and when:
 *
 *     mg::fault::arm("sched.worker", {.kind = mg::fault::Kind::Throw,
 *                                     .after = 3, .limit = 2, .seed = 42});
 *     ... run the pipeline; batches 4 and 5 throw, the scheduler
 *     ... quarantines and retries them, the run completes.
 *     mg::fault::disarmAll();
 *
 * Firing is deterministic for a given (spec, hit index): the decision is a
 * pure function of the spec's seed and the site's hit counter, so a
 * single-threaded decode replays identically across runs.  Keyed sites
 * (injectAt, e.g. "map.read" keyed on the read's input index) decide on
 * the key instead, which keeps multi-threaded runs deterministic too.
 *
 * Cost model: when nothing is armed, every fault point is a single relaxed
 * atomic load.  Configuring with -DMG_FAULT_INJECTION=OFF compiles the
 * whole API down to constant no-ops, removing even that load.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mg::fault {

/** What an armed site does when it fires. */
enum class Kind : uint8_t
{
    /** Throw StatusError(FaultInjected) — a poisoned work item or a
     *  worker dying mid-batch. */
    Throw,
    /** Buffer sites: decode a truncated copy of the input. */
    Truncate,
    /** Buffer sites: decode a copy with deterministic byte flips. */
    Corrupt,
    /** Throw std::bad_alloc — allocation failure. */
    AllocFail,
    /** Sleep stallMillis — a stalled worker or slow device. */
    Stall,
    /** Kill the process with SIGKILL — a crash at exactly this point.
     *  Used by the crash-matrix tests: a forked child runs with a Crash
     *  armed, the parent resumes from the last durable checkpoint. */
    Crash,
    /**
     * Write sites: persist only a prefix of the buffer (a torn write at
     * power loss).  The durable-write path uses this to exercise its
     * detection story — a torn shard fails its CRC on load and is simply
     * re-mapped.
     */
    TornWrite,
};

/** Short stable name ("throw", "truncate", ...). */
const char* kindName(Kind kind);

/** How an armed site decides to fire. */
struct Spec
{
    Kind kind = Kind::Throw;
    /** Per-hit firing probability (1.0 = every eligible hit), decided by
     *  a pure function of (seed, hit index). */
    double probability = 1.0;
    uint64_t seed = 0;
    /** Skip the first `after` hits of the site. */
    uint64_t after = 0;
    /** Stop firing after this many fires (the site keeps counting hits). */
    uint64_t limit = UINT64_MAX;
    /** Stall duration for Kind::Stall. */
    uint64_t stallMillis = 5;
};

/** Hit/fire counters of one site. */
struct SiteStats
{
    uint64_t hits = 0;
    uint64_t fires = 0;
};

#if defined(MG_FAULT_DISABLED)

// Compiled out: every fault point is a constant no-op the optimizer
// deletes entirely.
inline constexpr bool kCompiledIn = false;
inline bool anyArmed() { return false; }
inline void arm(const std::string&, const Spec&) {}
inline void disarm(const std::string&) {}
inline void disarmAll() {}
inline void armFromText(const std::string&) {}
inline SiteStats stats(const std::string&) { return {}; }
inline std::vector<std::pair<std::string, SiteStats>> allStats()
{
    return {};
}
inline std::optional<Kind> fire(std::string_view) { return std::nullopt; }
inline void inject(std::string_view) {}
inline void injectAt(std::string_view, uint64_t) {}
inline std::optional<std::vector<uint8_t>>
corrupted(std::string_view, const std::vector<uint8_t>&)
{
    return std::nullopt;
}

#else

inline constexpr bool kCompiledIn = true;

namespace detail {
/** Number of currently armed sites; fault points early-out on zero. */
extern std::atomic<int> armedSites;
std::optional<Kind> fireSlow(std::string_view site);
void injectSlow(std::string_view site, std::optional<uint64_t> key);
std::optional<std::vector<uint8_t>>
corruptedSlow(std::string_view site, const std::vector<uint8_t>& bytes);
} // namespace detail

/** True if any site is armed (one relaxed load). */
inline bool
anyArmed()
{
    return detail::armedSites.load(std::memory_order_relaxed) > 0;
}

/** Arm a site; replaces any existing spec and resets its counters. */
void arm(const std::string& site, const Spec& spec);

/** Disarm one site (keeps nothing; unknown sites are ignored). */
void disarm(const std::string& site);

/** Disarm everything — call from test teardown. */
void disarmAll();

/**
 * Arm sites from a config string (the CLI surface):
 *     "site=kind[,p=0.5][,seed=7][,after=3][,limit=2][,stall=10]"
 * Multiple clauses separated by ';'.  Throws mg::util::Error on bad
 * syntax or unknown kind names.
 */
void armFromText(const std::string& text);

/** Counters of one site (zeros if never hit). */
SiteStats stats(const std::string& site);

/** All sites with at least one hit or an armed spec. */
std::vector<std::pair<std::string, SiteStats>> allStats();

/**
 * Fault-point primitive: count a hit at `site` and return the armed Kind
 * if the spec decides this hit fires, nullopt otherwise.  Use inject() or
 * corrupted() unless the call site applies its own fault semantics.
 */
inline std::optional<Kind>
fire(std::string_view site)
{
    if (!anyArmed()) {
        return std::nullopt;
    }
    return detail::fireSlow(site);
}

/**
 * Throwing fault point for code sites (schedulers, mappers): Throw,
 * Truncate, and Corrupt throw StatusError(FaultInjected); AllocFail
 * throws std::bad_alloc; Stall sleeps and returns.
 */
inline void
inject(std::string_view site)
{
    if (anyArmed()) {
        detail::injectSlow(site, std::nullopt);
    }
}

/**
 * Keyed inject(): the spec's `after` and probability decide on `key`, the
 * work item's input index, in place of the site's shared hit counter, so
 * with several workers a fault hits the same items whichever worker
 * reaches them first.  `limit` still caps fires across the run, so a
 * limited fault stays transient (a retry of its item succeeds).
 */
inline void
injectAt(std::string_view site, uint64_t key)
{
    if (anyArmed()) {
        detail::injectSlow(site, key);
    }
}

/**
 * Buffer fault point for decode sites: if a Truncate/Corrupt fault fires,
 * returns a deterministically mutated copy of `bytes` for the caller to
 * decode instead; other kinds behave as inject().  Returns nullopt when
 * nothing fires.
 */
inline std::optional<std::vector<uint8_t>>
corrupted(std::string_view site, const std::vector<uint8_t>& bytes)
{
    if (!anyArmed()) {
        return std::nullopt;
    }
    return detail::corruptedSlow(site, bytes);
}

#endif // MG_FAULT_DISABLED

} // namespace mg::fault
