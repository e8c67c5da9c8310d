#include "perf/profiler.h"

#include <array>
#include <fstream>

#include "util/common.h"

namespace mg::perf {

const char*
regionName(Stage stage)
{
    switch (stage) {
    case Stage::FindSeeds: return "find_seeds";
    case Stage::ClusterSeeds: return "cluster_seeds";
    case Stage::ProcessUntilThresholdC: return "process_until_threshold_c";
    case Stage::Extend: return "extend";
    case Stage::ScoreExtensions: return "score_extensions";
    case Stage::Align: return "align";
    }
    return "?";
}

Profiler::ThreadLog*
Profiler::registerThread(size_t thread_index)
{
    if (!enabled_) {
        return nullptr;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (thread_index >= logs_.size()) {
        logs_.resize(thread_index + 1);
    }
    if (!logs_[thread_index]) {
        logs_[thread_index] = std::make_unique<ThreadLog>(thread_index);
    }
    return logs_[thread_index].get();
}

size_t
Profiler::numThreads() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return logs_.size();
}

std::vector<RegionTotal>
Profiler::aggregate() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<RegionTotal> totals;
    for (const auto& log : logs_) {
        if (!log) {
            continue;
        }
        // Dense (stage -> slot) map local to this thread.
        std::array<size_t, kStages> slot;
        slot.fill(SIZE_MAX);
        for (const RegionRecord& rec : log->records()) {
            const size_t s = static_cast<size_t>(rec.stage);
            if (slot[s] == SIZE_MAX) {
                slot[s] = totals.size();
                totals.push_back(RegionTotal{rec.stage, log->index(), 0, 0});
            }
            RegionTotal& total = totals[slot[s]];
            total.totalNanos += rec.endNanos - rec.startNanos;
            ++total.invocations;
        }
    }
    return totals;
}

double
Profiler::regionSeconds(Stage stage) const
{
    double seconds = 0.0;
    for (const RegionTotal& total : aggregate()) {
        if (total.stage == stage) {
            seconds += static_cast<double>(total.totalNanos) * 1e-9;
        }
    }
    return seconds;
}

void
Profiler::dumpCsv(const std::string& path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    util::require(out.good(), "cannot open profile dump file: ", path);
    out << "thread,region,start_ns,end_ns\n";
    for (const auto& log : logs_) {
        if (!log) {
            continue;
        }
        for (const RegionRecord& rec : log->records()) {
            out << log->index() << ',' << regionName(rec.stage) << ','
                << rec.startNanos << ',' << rec.endNanos << '\n';
        }
    }
}

void
Profiler::forEachRecord(
    const std::function<void(size_t, const RegionRecord&)>& fn) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& log : logs_) {
        if (!log) {
            continue;
        }
        for (const RegionRecord& rec : log->records()) {
            fn(log->index(), rec);
        }
    }
}

void
Profiler::clearRecords()
{
    std::lock_guard<std::mutex> lock(mutex_);
    logs_.clear();
}

} // namespace mg::perf
