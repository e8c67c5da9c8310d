#include "giraffe/session.h"

#include "io/gaf.h"
#include "util/common.h"
#include "util/timer.h"

namespace mg::giraffe {

MapSession::MapSession(const graph::VariationGraph& graph,
                       const gbwt::Gbwt& gbwt,
                       const index::MinimizerIndex& minimizers,
                       const index::DistanceIndex& distance,
                       SessionParams params)
    : graph_(graph), params_(params),
      mapper_(graph, gbwt, minimizers, distance, params.mapper),
      states_(params.workers)
{
    MG_CHECK(params_.workers > 0, "session needs at least one worker");
}

map::MapperState&
MapSession::workerState(size_t worker, obs::Hub* hub)
{
    MG_ASSERT(worker < states_.size());
    if (!states_[worker]) {
        std::lock_guard<std::mutex> lock(stateMutex_);
        if (!states_[worker]) {
            auto state = mapper_.makeState();
            state->attachHub(hub, worker);
            states_[worker] = std::move(state);
        }
    }
    return *states_[worker];
}

void
MapSession::warmup(obs::Hub* hub)
{
    for (size_t worker = 0; worker < states_.size(); ++worker) {
        workerState(worker, hub);
    }
}

SessionResult
MapSession::map(size_t worker, const std::vector<map::Read>& reads,
                const resilience::WorkBudget& budget,
                sched::HeartbeatBoard* board, obs::Hub* hub,
                resilience::CancelToken* token,
                obs::StageAccumulator* stage_trace)
{
    map::MapperState& state = workerState(worker, hub);
    state.stageTrace = stage_trace;

    // The request's wall budget becomes one absolute deadline shared by
    // all of its reads: the Nth read does not get a fresh clock.
    const uint64_t deadline_nanos =
        budget.wallSeconds > 0.0
            ? util::nowNanos() +
                  static_cast<uint64_t>(budget.wallSeconds * 1e9)
            : 0;
    if (board != nullptr) {
        token = &board->slot(worker).token;
        board->beginBatch(worker, 0, reads.size());
    }
    state.budget.configure(budget, deadline_nanos, token);

    SessionResult result;
    result.gaf.reserve(reads.size() * 96);
    for (size_t i = 0; i < reads.size(); ++i) {
        if (board != nullptr) {
            board->beat(worker);
        }
        if (state.flight != nullptr) {
            state.flight->begin(i);
        }
        const map::Read& read = reads[i];
        map::MapResult mapped = mapper_.mapRead(read, state);
        {
            const auto scope = state.stage(perf::Stage::Align);
            Alignment alignment =
                postProcess(read.name, mapped.extensions, params_.post);
            alignment.degraded = mapped.degraded;
            result.gaf += io::formatGafLine(alignment, read, graph_);
            result.gaf += '\n';
            result.mappedReads += alignment.mapped ? 1 : 0;
        }
        if (mapped.degraded != resilience::CancelReason::None) {
            ++result.degradedReads;
        }
        if (state.flight != nullptr) {
            state.flight->done();
        }
    }

    if (hub != nullptr) {
        state.flushMetrics();
    }
    if (board != nullptr) {
        board->endBatch(worker);
    }
    state.stageTrace = nullptr;
    return result;
}

} // namespace mg::giraffe
