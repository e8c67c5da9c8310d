#include "fault/fault.h"

#include <chrono>
#include <csignal>
#include <map>
#include <mutex>
#include <new>
#include <thread>

#include "util/common.h"
#include "util/status.h"
#include "util/str.h"

namespace mg::fault {

const char*
kindName(Kind kind)
{
    switch (kind) {
      case Kind::Throw:
        return "throw";
      case Kind::Truncate:
        return "truncate";
      case Kind::Corrupt:
        return "corrupt";
      case Kind::AllocFail:
        return "alloc-fail";
      case Kind::Stall:
        return "stall";
      case Kind::Crash:
        return "crash";
      case Kind::TornWrite:
        return "torn-write";
    }
    return "unknown";
}

#if !defined(MG_FAULT_DISABLED)

namespace detail {

std::atomic<int> armedSites{0};

namespace {

/** SplitMix64 — the per-hit decision must be a pure function of
 *  (seed, hit index) so replays are deterministic. */
uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

struct Site
{
    bool armed = false;
    Spec spec;
    SiteStats stats;
};

std::mutex g_mutex;
std::map<std::string, Site, std::less<>>& // NOLINT
registry()
{
    static std::map<std::string, Site, std::less<>> sites;
    return sites;
}

/**
 * Decide and account one hit; returns the Kind when the hit fires.  The
 * decision keys on `key` when given, else on the site's hit counter.
 */
std::optional<Kind>
decide(std::string_view site, std::optional<uint64_t> key = std::nullopt)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    auto it = registry().find(site);
    if (it == registry().end() || !it->second.armed) {
        return std::nullopt;
    }
    Site& entry = it->second;
    const uint64_t hit = key.value_or(entry.stats.hits);
    ++entry.stats.hits;
    if (hit < entry.spec.after || entry.stats.fires >= entry.spec.limit) {
        return std::nullopt;
    }
    if (entry.spec.probability < 1.0) {
        // Top 53 bits -> uniform double in [0, 1).
        double draw = static_cast<double>(
                          mix(entry.spec.seed ^ (hit * 0x2545f4914f6cdd1dull))
                          >> 11) *
                      (1.0 / 9007199254740992.0);
        if (draw >= entry.spec.probability) {
            return std::nullopt;
        }
    }
    ++entry.stats.fires;
    return entry.spec.kind;
}

/** Spec and fire index for buffer mutation (post-decision). */
std::pair<Spec, uint64_t>
siteSpec(std::string_view site)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    auto it = registry().find(site);
    MG_ASSERT(it != registry().end());
    return {it->second.spec, it->second.stats.fires};
}

[[noreturn]] void
throwInjected(std::string_view site, Kind kind)
{
    util::Status status;
    status.code = util::StatusCode::FaultInjected;
    status.message =
        util::cat("injected ", kindName(kind), " fault at site ", site);
    status.section = std::string(site);
    util::throwStatus(std::move(status));
}

void
act(std::string_view site, Kind kind, const Spec& spec)
{
    switch (kind) {
      case Kind::AllocFail:
        throw std::bad_alloc();
      case Kind::Stall:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(spec.stallMillis));
        return;
      case Kind::Crash:
        // SIGKILL, not abort(): no atexit handlers, no stack unwinding,
        // no buffered-stream flush — the closest in-process stand-in for
        // power loss the crash-matrix tests can arrange.
        std::raise(SIGKILL);
        return; // unreachable
      case Kind::Throw:
      case Kind::Truncate:
      case Kind::Corrupt:
      case Kind::TornWrite:
        // TornWrite at a non-buffer site degrades to a thrown fault; the
        // durable-write path intercepts it via fire() before this.
        throwInjected(site, kind);
    }
}

} // namespace

std::optional<Kind>
fireSlow(std::string_view site)
{
    return decide(site);
}

void
injectSlow(std::string_view site, std::optional<uint64_t> key)
{
    std::optional<Kind> kind = decide(site, key);
    if (!kind) {
        return;
    }
    act(site, *kind, siteSpec(site).first);
}

std::optional<std::vector<uint8_t>>
corruptedSlow(std::string_view site, const std::vector<uint8_t>& bytes)
{
    std::optional<Kind> kind = decide(site);
    if (!kind) {
        return std::nullopt;
    }
    auto [spec, fires] = siteSpec(site);
    // Mutation offsets are a pure function of (seed, fire index, size).
    uint64_t nonce = mix(spec.seed ^ fires);
    switch (*kind) {
      case Kind::Truncate:
      case Kind::TornWrite: {
        // TornWrite at a buffer site: the caller persists only this
        // deterministic prefix (a torn write at power loss).
        std::vector<uint8_t> cut(bytes);
        cut.resize(bytes.empty() ? 0 : nonce % bytes.size());
        return cut;
      }
      case Kind::Corrupt: {
        std::vector<uint8_t> bad(bytes);
        if (!bad.empty()) {
            uint64_t flips = 1 + nonce % 4;
            for (uint64_t f = 0; f < flips; ++f) {
                uint64_t r = mix(nonce ^ (f + 1));
                bad[r % bad.size()] ^=
                    static_cast<uint8_t>(1 + (r >> 32) % 255);
            }
        }
        return bad;
      }
      default:
        act(site, *kind, spec);
        return std::nullopt;
    }
}

} // namespace detail

void
arm(const std::string& site, const Spec& spec)
{
    MG_CHECK(!site.empty(), "fault site name must not be empty");
    MG_CHECK(spec.probability >= 0.0 && spec.probability <= 1.0,
             "fault probability must be in [0, 1]");
    std::lock_guard<std::mutex> lock(detail::g_mutex);
    detail::Site& entry = detail::registry()[site];
    if (!entry.armed) {
        detail::armedSites.fetch_add(1, std::memory_order_relaxed);
    }
    entry.armed = true;
    entry.spec = spec;
    entry.stats = SiteStats{};
}

void
disarm(const std::string& site)
{
    std::lock_guard<std::mutex> lock(detail::g_mutex);
    auto it = detail::registry().find(site);
    if (it != detail::registry().end() && it->second.armed) {
        it->second.armed = false;
        detail::armedSites.fetch_sub(1, std::memory_order_relaxed);
    }
}

void
disarmAll()
{
    std::lock_guard<std::mutex> lock(detail::g_mutex);
    for (auto& [site, entry] : detail::registry()) {
        entry.armed = false;
    }
    detail::armedSites.store(0, std::memory_order_relaxed);
}

SiteStats
stats(const std::string& site)
{
    std::lock_guard<std::mutex> lock(detail::g_mutex);
    auto it = detail::registry().find(site);
    return it == detail::registry().end() ? SiteStats{} : it->second.stats;
}

std::vector<std::pair<std::string, SiteStats>>
allStats()
{
    std::lock_guard<std::mutex> lock(detail::g_mutex);
    std::vector<std::pair<std::string, SiteStats>> out;
    out.reserve(detail::registry().size());
    for (const auto& [site, entry] : detail::registry()) {
        if (entry.armed || entry.stats.hits > 0) {
            out.emplace_back(site, entry.stats);
        }
    }
    return out;
}

void
armFromText(const std::string& text)
{
    for (const std::string& clause : util::split(text, ';')) {
        std::string trimmed(util::trim(clause));
        if (trimmed.empty()) {
            continue;
        }
        size_t eq = trimmed.find('=');
        util::require(eq != std::string::npos && eq > 0,
                      "fault spec must look like site=kind[,key=value...]: ",
                      trimmed);
        std::string site = trimmed.substr(0, eq);
        std::vector<std::string> parts =
            util::split(trimmed.substr(eq + 1), ',');
        util::require(!parts.empty(), "missing fault kind in: ", trimmed);
        Spec spec;
        if (parts[0] == "throw") {
            spec.kind = Kind::Throw;
        } else if (parts[0] == "truncate") {
            spec.kind = Kind::Truncate;
        } else if (parts[0] == "corrupt") {
            spec.kind = Kind::Corrupt;
        } else if (parts[0] == "alloc-fail") {
            spec.kind = Kind::AllocFail;
        } else if (parts[0] == "stall") {
            spec.kind = Kind::Stall;
        } else if (parts[0] == "crash") {
            spec.kind = Kind::Crash;
        } else if (parts[0] == "torn-write") {
            spec.kind = Kind::TornWrite;
        } else {
            throw util::Error(util::cat(
                "unknown fault kind '", parts[0],
                "' (valid: throw, truncate, corrupt, alloc-fail, stall, ",
                "crash, torn-write)"));
        }
        for (size_t i = 1; i < parts.size(); ++i) {
            size_t keq = parts[i].find('=');
            util::require(keq != std::string::npos,
                          "bad fault option (want key=value): ", parts[i]);
            std::string key = parts[i].substr(0, keq);
            std::string value = parts[i].substr(keq + 1);
            if (key == "p") {
                spec.probability = std::stod(value);
            } else if (key == "seed") {
                spec.seed = std::stoull(value);
            } else if (key == "after") {
                spec.after = std::stoull(value);
            } else if (key == "limit") {
                spec.limit = std::stoull(value);
            } else if (key == "stall") {
                spec.stallMillis = std::stoull(value);
            } else {
                throw util::Error(util::cat(
                    "unknown fault option '", key,
                    "' (valid: p, seed, after, limit, stall)"));
            }
        }
        arm(site, spec);
    }
}

#endif // !MG_FAULT_DISABLED

} // namespace mg::fault
