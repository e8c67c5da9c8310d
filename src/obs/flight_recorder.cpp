#include "obs/flight_recorder.h"

#include <csignal>
#include <cstdio>
#include <ctime>
#include <unistd.h>

#include "stats/latency.h"
#include "util/common.h"
#include "util/timer.h"

namespace mg::obs {

const char*
stageName(ReadStage stage)
{
    switch (stage) {
    case ReadStage::Idle: return "idle";
    case ReadStage::Start: return "start";
    case ReadStage::Cluster: return "cluster";
    case ReadStage::Process: return "process";
    case ReadStage::Extend: return "extend";
    case ReadStage::Rescue: return "rescue";
    case ReadStage::Done: return "done";
    }
    return "?";
}

void
FlightRecorder::Ring::begin(uint64_t read_index)
{
    uint64_t head = head_.load(std::memory_order_relaxed);
    Slot& slot = slots_[head % slots_.size()];
    slot.readIndex.store(read_index, std::memory_order_relaxed);
    slot.enterNanos.store(util::nowNanos(), std::memory_order_relaxed);
    slot.traceId.store(currentTrace_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    slot.stage.store(static_cast<uint8_t>(ReadStage::Start),
                     std::memory_order_relaxed);
    head_.store(head + 1, std::memory_order_release);
}

void
FlightRecorder::Ring::stage(ReadStage s, uint64_t now_nanos)
{
    uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == 0) {
        return; // stage() before any begin(): nothing to attribute
    }
    Slot& slot = slots_[(head - 1) % slots_.size()];
    slot.enterNanos.store(now_nanos, std::memory_order_relaxed);
    slot.stage.store(static_cast<uint8_t>(s), std::memory_order_relaxed);
}

std::vector<FlightEntry>
FlightRecorder::Ring::snapshot() const
{
    std::vector<FlightEntry> out;
    uint64_t head = head_.load(std::memory_order_acquire);
    uint64_t n = head < slots_.size() ? head : slots_.size();
    out.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
        FlightEntry entry = decodeSlot((head - 1 - i) % slots_.size());
        if (entry.stage == ReadStage::Idle) {
            continue;
        }
        out.push_back(entry);
    }
    return out;
}

FlightRecorder::FlightRecorder(size_t workers, size_t ring_size)
{
    MG_CHECK(workers > 0, "flight recorder needs at least one worker");
    MG_CHECK(ring_size > 0, "flight recorder ring size must be positive");
    rings_.reserve(workers);
    for (size_t i = 0; i < workers; ++i) {
        rings_.push_back(std::make_unique<Ring>(ring_size));
    }
}

std::string
formatFlightEntries(const std::vector<FlightEntry>& entries,
                    uint64_t now_nanos)
{
    std::string out;
    for (const FlightEntry& entry : entries) {
        uint64_t age = now_nanos >= entry.stageEnterNanos
                           ? now_nanos - entry.stageEnterNanos
                           : 0;
        out += "    read ";
        out += std::to_string(entry.readIndex);
        out += " stage=";
        out += stageName(entry.stage);
        if (entry.traceId != 0) {
            char trace[32];
            std::snprintf(trace, sizeof(trace), " trace=0x%016llx",
                          static_cast<unsigned long long>(entry.traceId));
            out += trace;
        }
        out += entry.stage == ReadStage::Done ? " finished " : " for ";
        out += stats::formatNanos(static_cast<double>(age));
        out += entry.stage == ReadStage::Done ? " ago\n" : "\n";
    }
    return out;
}

std::string
FlightRecorder::report(
    uint64_t now_nanos,
    const std::function<std::string(uint64_t)>& read_name) const
{
    std::string out = "flight recorder (newest first):\n";
    for (size_t w = 0; w < rings_.size(); ++w) {
        std::vector<FlightEntry> entries = snapshot(w);
        if (entries.empty()) {
            continue;
        }
        out += "  worker " + std::to_string(w) + ":\n";
        if (!read_name) {
            out += formatFlightEntries(entries, now_nanos);
            continue;
        }
        for (const FlightEntry& entry : entries) {
            std::string line =
                formatFlightEntries({ entry }, now_nanos);
            if (!line.empty() && line.back() == '\n') {
                line.pop_back();
            }
            out += line + " (" + read_name(entry.readIndex) + ")\n";
        }
    }
    return out;
}

// ----------------------------------------------------------- crash handler

namespace {

std::atomic<const FlightRecorder*> g_crash_recorder{nullptr};

/** write(2) the whole buffer; best effort, async-signal-safe.  Retries
 *  EINTR and short writes like io::writeFull (not usable here: obs sits
 *  below io in the library layering). */
void
rawWrite(const char* text, size_t len)
{
    size_t done = 0;
    while (done < len) {
        ssize_t n = ::write(STDERR_FILENO, text + done, len - done);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return;
        }
        done += static_cast<size_t>(n);
    }
}

void
rawWrite(const char* text)
{
    size_t len = 0;
    while (text[len] != '\0') {
        ++len;
    }
    rawWrite(text, len);
}

/** Hand-rolled decimal formatting (no snprintf in a signal handler). */
void
rawWriteUint(uint64_t value)
{
    char buf[24];
    size_t pos = sizeof(buf);
    do {
        buf[--pos] = static_cast<char>('0' + value % 10);
        value /= 10;
    } while (value != 0);
    rawWrite(buf + pos, sizeof(buf) - pos);
}

/** Hand-rolled 0x-prefixed hex (trace ids in the crash dump). */
void
rawWriteHex(uint64_t value)
{
    char buf[18] = {'0', 'x'};
    for (int i = 0; i < 16; ++i) {
        uint64_t nibble = (value >> (60 - 4 * i)) & 0xF;
        buf[2 + i] = static_cast<char>(
            nibble < 10 ? '0' + nibble : 'a' + (nibble - 10));
    }
    rawWrite(buf, sizeof(buf));
}

void
crashHandler(int sig)
{
    const FlightRecorder* recorder =
        g_crash_recorder.load(std::memory_order_acquire);
    if (recorder != nullptr) {
        struct timespec ts;
        clock_gettime(CLOCK_MONOTONIC, &ts);
        uint64_t now = static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
                       static_cast<uint64_t>(ts.tv_nsec);
        rawWrite("minigiraffe: fatal signal ");
        rawWriteUint(static_cast<uint64_t>(sig));
        rawWrite(", flight recorder (newest first):\n");
        for (size_t w = 0; w < recorder->workers(); ++w) {
            const FlightRecorder::Ring* ring = recorder->ring(w);
            uint64_t head = ring->head();
            uint64_t n =
                head < ring->size() ? head : ring->size();
            for (uint64_t i = 0; i < n; ++i) {
                FlightEntry entry =
                    ring->decodeSlot((head - 1 - i) % ring->size());
                if (entry.stage == ReadStage::Idle) {
                    continue;
                }
                rawWrite("  worker ");
                rawWriteUint(w);
                rawWrite(" read ");
                rawWriteUint(entry.readIndex);
                if (entry.traceId != 0) {
                    rawWrite(" trace ");
                    rawWriteHex(entry.traceId);
                }
                rawWrite(" stage ");
                rawWrite(stageName(entry.stage));
                rawWrite(" entered ");
                rawWriteUint(now >= entry.stageEnterNanos
                                 ? (now - entry.stageEnterNanos) / 1000000
                                 : 0);
                rawWrite(" ms ago\n");
            }
        }
    }
    // Restore default disposition and re-raise so the exit status (and
    // core dump, where enabled) is the same as without the handler.
    std::signal(sig, SIG_DFL);
    std::raise(sig);
}

constexpr int kCrashSignals[] = { SIGSEGV, SIGBUS, SIGFPE, SIGABRT };

} // namespace

void
installCrashHandler(const FlightRecorder* recorder)
{
    g_crash_recorder.store(recorder, std::memory_order_release);
    for (int sig : kCrashSignals) {
        std::signal(sig, recorder == nullptr ? SIG_DFL : &crashHandler);
    }
}

} // namespace mg::obs
