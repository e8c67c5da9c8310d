#include "giraffe/session.h"

#include "util/common.h"

namespace mg::giraffe {

MapSession::MapSession(const graph::VariationGraph& graph,
                       const gbwt::Gbwt& gbwt,
                       const index::MinimizerIndex& minimizers,
                       const index::DistanceIndex& distance,
                       SessionParams params)
    : params_(params),
      mapper_(graph, gbwt, minimizers, distance, params.mapper),
      states_(mapper_, params.workers)
{
    MG_CHECK(params_.workers > 0, "session needs at least one worker");
}

void
MapSession::warmup(obs::Hub* hub)
{
    for (size_t worker = 0; worker < states_.size(); ++worker) {
        states_.state(worker, hub);
    }
}

SessionResult
MapSession::map(size_t worker, const std::vector<map::Read>& reads,
                const resilience::WorkBudget& budget,
                sched::HeartbeatBoard* board, obs::Hub* hub,
                resilience::CancelToken* token,
                obs::StageAccumulator* stage_trace)
{
    map::MapperState& state = states_.state(worker, hub);
    state.stageTrace = stage_trace;
    if (board != nullptr) {
        token = &board->slot(worker).token;
    }
    // The request's wall budget becomes one absolute deadline shared by
    // all of its reads: the Nth read does not get a fresh clock.
    state.budget.configure(budget, deadlineNanos(budget), token);

    SessionResult result;
    result.gaf.reserve(reads.size() * 96);
    mapRange(state, board, worker, 0, reads.size(), [&](size_t i) {
        const Alignment alignment = alignRead(
            mapper_, params_.post, reads[i], state, nullptr, &result.gaf);
        result.mappedReads += alignment.mapped ? 1 : 0;
        result.degradedReads +=
            alignment.degraded != resilience::CancelReason::None ? 1 : 0;
    });

    state.flushMetrics();
    state.stageTrace = nullptr;
    return result;
}

} // namespace mg::giraffe
