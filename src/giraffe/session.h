/**
 * @file
 * Session-oriented mapping: one MapSession holds one loaded index set
 * (graph + GBWT + minimizer + distance) and serves many small mapping
 * requests against it — the daemon-shaped entry point, where
 * ParentEmulator::run is the batch-shaped one.  Both map through the
 * same read driver (batch_run.h): one worker-state table, one deadline
 * rule, one heartbeat/flight loop and the parent's per-read body, so a
 * request's GAF is the batch run's GAF for the same reads.  Differences
 * that matter:
 *
 *  - Per-worker MapperState persists *across requests* (the whole point
 *    of a daemon: indexes load once, scratch stays warm), instead of
 *    being created per run.
 *  - Each request carries its own WorkBudget; the wall deadline is made
 *    absolute at request start, so every read of the request shares one
 *    cutoff and an over-budget request returns best-so-far degraded GAF
 *    (tagged dg:Z:) instead of hanging.
 *  - No scheduler: a request is mapped start-to-finish by the one worker
 *    that dequeued it.  Cross-request parallelism comes from the daemon's
 *    worker pool, which matches the service shape (many small requests)
 *    better than intra-request batching would.
 *
 * Thread safety: map() is safe concurrently for *distinct* worker
 * indexes; two concurrent calls with the same index race on that
 * worker's state.
 */
#pragma once

#include <string>
#include <vector>

#include "giraffe/alignment.h"
#include "giraffe/batch_run.h"
#include "map/mapper.h"
#include "obs/hub.h"
#include "resilience/budget.h"
#include "sched/watchdog.h"

namespace mg::giraffe {

/** Session configuration. */
struct SessionParams
{
    map::MapperParams mapper;
    PostProcessParams post;
    /** Worker slots (distinct MapperStates) the session must support. */
    size_t workers = 1;
};

/** What one request's mapping produced. */
struct SessionResult
{
    /** GAF text, one line per read; degraded reads carry dg:Z tags. */
    std::string gaf;
    /** Reads that produced an alignment. */
    uint64_t mappedReads = 0;
    /** Reads cut short by the budget/watchdog (best-so-far output). */
    uint64_t degradedReads = 0;
};

/** One loaded index set serving many mapping requests. */
class MapSession
{
  public:
    MapSession(const graph::VariationGraph& graph, const gbwt::Gbwt& gbwt,
               const index::MinimizerIndex& minimizers,
               const index::DistanceIndex& distance, SessionParams params);

    /**
     * Map one request's reads on worker slot `worker`.
     *
     * The budget is rebound per request (wallSeconds becomes an absolute
     * deadline sampled now).  With a `board` the request is one
     * heartbeat batch (mapRange), so a daemon watchdog can cancel it
     * cooperatively.  Without one, `token` (may be null) is used
     * directly and never reset, which is what deterministic tests want.
     *
     * `stage_trace` (nullable) receives the request's per-stage wall
     * time from the mapper's stage hook when the request is traced; the
     * post-process + GAF format step counts as Align.  The hook is
     * timing-only: traced and untraced requests produce byte-identical
     * GAF.
     */
    SessionResult map(size_t worker, const std::vector<map::Read>& reads,
                      const resilience::WorkBudget& budget,
                      sched::HeartbeatBoard* board = nullptr,
                      obs::Hub* hub = nullptr,
                      resilience::CancelToken* token = nullptr,
                      obs::StageAccumulator* stage_trace = nullptr);

    /**
     * Pre-create every worker slot's MapperState (hot-swap path: the
     * replacement generation's session is warmed *before* publish, so the
     * first post-swap request on any worker pays no lazy-init cost).
     */
    void warmup(obs::Hub* hub = nullptr);

  private:
    SessionParams params_;
    map::Mapper mapper_;
    StateTable states_;
};

} // namespace mg::giraffe
