#include "serve/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "fault/fault.h"
#include "io/fd.h"
#include "obs/json.h"
#include "util/common.h"
#include "util/timer.h"

namespace mg::serve {

namespace {

/** Default QoS when the operator configures no tenants. */
std::vector<TenantConfig>
defaultTenants()
{
    TenantConfig config;
    config.name = "default";
    return { config };
}

const char*
daemonStateName(DaemonState state)
{
    switch (state) {
      case DaemonState::Idle:
        return "idle";
      case DaemonState::Running:
        return "running";
      case DaemonState::Draining:
        return "draining";
      case DaemonState::Stopped:
        return "stopped";
    }
    return "?";
}

std::vector<std::string>
tenantNames(const std::vector<TenantConfig>& tenants)
{
    std::vector<std::string> names;
    names.reserve(tenants.size());
    for (const TenantConfig& tenant : tenants) {
        names.push_back(tenant.name);
    }
    return names;
}

} // namespace

Daemon::Connection::~Connection()
{
    // Last reference gone (reader exited, no worker holds a job for
    // this peer): now the fd number can be safely recycled.
    if (fd >= 0) {
        ::close(fd);
    }
}

Daemon::Daemon(io::IndexedPangenome&& pangenome, std::string source,
               DaemonParams params)
    : params_(std::move(params)),
      hub_(std::make_unique<obs::Hub>(
          params_.workers + 1,
          tenantNames(params_.tenants.empty() ? defaultTenants()
                                              : params_.tenants),
          params_.flightRingSize)),
      board_(params_.workers)
{
    MG_CHECK(params_.workers > 0, "daemon needs at least one worker");
    MG_CHECK(!params_.socketPath.empty(), "daemon needs a socket path");
    if (params_.tenants.empty()) {
        params_.tenants = defaultTenants();
    }
    // The served container says how the index got into memory.
    params_.indexLoadMode = io::loadModeName(pangenome.info.mode);
    params_.indexLoadSeconds = pangenome.info.loadSeconds;
    report_.indexLoadMode = params_.indexLoadMode;
    report_.indexLoadSeconds = params_.indexLoadSeconds;
    giraffe::SessionParams session = params_.session;
    session.workers = params_.workers;
    index_ = std::make_unique<IndexManager>(std::move(pangenome), session,
                                            std::move(source));
    queue_ = std::make_unique<AdmissionQueue<Job>>(
        params_.queueCapacity, params_.tenants, params_.retryBaseMillis);
    watchdog_ =
        std::make_unique<sched::Watchdog>(board_, params_.watchdogParams);
    watchdog_->attachFlightRecorder(&hub_->flight());
    obs::RequestTracer::Params tracer_params;
    tracer_params.lanes = params_.workers;
    tracer_params.sampleRate = params_.traceSample;
    tracer_params.exemplars = params_.traceExemplars;
    tracer_ = std::make_unique<obs::RequestTracer>(tracer_params);
    // Value-initialized: every tenant's EWMA starts at 0.
    tenantEwmaNanos_ =
        std::make_unique<std::atomic<uint64_t>[]>(params_.tenants.size());
}

void
Daemon::commitTrace(size_t lane, obs::TraceContext&& ctx,
                    std::string_view disposition,
                    obs::Registry::ThreadSlab* slab)
{
    ctx.endNanos = util::nowNanos();
    ctx.disposition = std::string(disposition);
    const obs::ServeMetricIds& serve = hub_->serve();
    for (const obs::Span& span : ctx.spans) {
        slab->observe(serve.stageNanos[static_cast<size_t>(span.stage)],
                      span.endNanos - span.beginNanos);
    }
    tracer_->commit(lane, std::move(ctx));
}

void
Daemon::endRequest(Connection& conn, Response& response,
                   std::unique_ptr<obs::TraceContext>& trace, size_t lane,
                   std::string_view disposition,
                   obs::Registry::ThreadSlab* slab)
{
    if (trace) {
        response.traceId = trace->traceId;
        commitTrace(lane, std::move(*trace), disposition, slab);
        trace.reset();
    }
    respond(conn, response);
}

Daemon::~Daemon()
{
    stop();
}

obs::Registry::ThreadSlab*
Daemon::controlSlab()
{
    // Control-plane threads (acceptor + readers) share the extra slab
    // past the workers'.  The cells are atomics, so the multi-writer
    // sharing is race-free; contention is irrelevant off the hot path.
    return hub_->slab(params_.workers);
}

void
Daemon::start()
{
    MG_CHECK(state_.load() == DaemonState::Idle,
             "daemon started twice");
    io::ignoreSigpipe();
    listenFd_ = io::listenUnix(params_.socketPath);
    MG_CHECK(::pipe(wakePipe_) == 0, "cannot create daemon wake pipe");
    // Freeze the metric layout before any worker runs.
    controlSlab();
    state_.store(DaemonState::Running);
    if (params_.watchdog) {
        watchdog_->start();
    }
    workers_.reserve(params_.workers);
    for (size_t w = 0; w < params_.workers; ++w) {
        workers_.emplace_back([this, w] { workerLoop(w); });
    }
    acceptor_ = std::thread([this] { acceptorLoop(); });
}

void
Daemon::acceptorLoop()
{
    for (;;) {
        if (state_.load() != DaemonState::Running) {
            break;
        }
        struct pollfd fds[2] = {
            { listenFd_, POLLIN, 0 },
            { wakePipe_[0], POLLIN, 0 },
        };
        int rc = ::poll(fds, 2, 200);
        if (state_.load() != DaemonState::Running) {
            break;
        }
        if (rc <= 0 || (fds[0].revents & POLLIN) == 0) {
            continue; // timeout, EINTR, or just the wake pipe
        }
        try {
            // Fault site: the accept path failing or stalling.
            fault::inject("serve.accept");
        } catch (const util::Error&) {
            controlSlab()->add(hub_->serve().badFrames);
            continue;
        }
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            continue; // EINTR/ECONNABORTED: not fatal for a server
        }
        auto conn = std::make_shared<Connection>();
        conn->fd = fd;
        std::lock_guard<std::mutex> lock(connMutex_);
        connections_.push_back(conn);
        readers_.emplace_back(
            [this, conn]() mutable { readerLoop(std::move(conn)); });
    }
    // Draining: close the listen socket *now*, not at stop().  A client
    // connecting mid-drain would otherwise land in the kernel backlog
    // with nobody ever accepting — its request written, its read blocked
    // forever.  Refusing the connect (ECONNREFUSED) turns that hang into
    // a transport failure the client retries with backoff.
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
}

void
Daemon::readerLoop(std::shared_ptr<Connection> conn)
{
    std::vector<uint8_t> payload;
    const auto answer_error = [&conn, this](uint64_t id,
                                            std::string message) {
        Response error;
        error.id = id;
        error.status = ResponseStatus::Error;
        error.message = std::move(message);
        respond(*conn, error);
    };
    while (conn->open.load()) {
        util::Status status;
        uint64_t frame_arrival = 0;
        try {
            status = readFrame(conn->fd, payload, &frame_arrival);
        } catch (const util::Error&) {
            // Injected serve.read throw: treat like an I/O failure.
            closeConnection(*conn);
            break;
        }
        const uint64_t accept_end = util::nowNanos();
        if (!status.ok()) {
            if (isCleanEof(status) ||
                status.code == util::StatusCode::IoError) {
                closeConnection(*conn);
                break;
            }
            // Damaged frame: the stream may be desynchronized, so answer
            // once (best effort) and drop the connection.
            controlSlab()->add(hub_->serve().badFrames);
            answer_error(0, status.toString());
            closeConnection(*conn);
            break;
        }
        MessageKind kind = MessageKind::Request;
        if (peekKind(payload, kind).ok() &&
            kind == MessageKind::Control) {
            ControlRequest control;
            util::Status decoded = decodeControl(payload, control);
            if (!decoded.ok()) {
                controlSlab()->add(hub_->serve().badFrames);
                answer_error(0, decoded.toString());
                closeConnection(*conn);
                break;
            }
            try {
                handleControl(conn, std::move(control));
            } catch (const util::Error& err) {
                answer_error(control.id, err.what());
            }
            continue;
        }
        Request request;
        util::Status decoded = decodeRequest(payload, request);
        const uint64_t decode_end = util::nowNanos();
        if (!decoded.ok()) {
            controlSlab()->add(hub_->serve().badFrames);
            answer_error(0, decoded.toString());
            closeConnection(*conn);
            break;
        }
        try {
            handleRequest(conn, std::move(request), frame_arrival,
                          accept_end, decode_end);
        } catch (const util::Error& err) {
            // Nothing past this point may kill the daemon; answer and
            // keep serving the connection.
            answer_error(request.id, err.what());
        }
    }
}

void
Daemon::handleControl(std::shared_ptr<Connection>& conn,
                      ControlRequest&& control)
{
    if (control.op == ControlOp::Stats) {
        Response response;
        response.id = control.id;
        response.status = ResponseStatus::StatsOk;
        response.generation = index_->generation();
        response.message = statsJson();
        respond(*conn, response);
        return;
    }
    Response response;
    response.id = control.id;
    SwapOutcome outcome = reloadIndex(control.path);
    response.generation = outcome.generation;
    if (outcome.accepted) {
        response.status = ResponseStatus::ReloadOk;
        response.message =
            util::cat("generation ", outcome.generation, " published");
    } else {
        response.status = ResponseStatus::ReloadRejected;
        response.message = outcome.reason;
    }
    respond(*conn, response);
}

SwapOutcome
Daemon::reloadIndex(const std::string& path)
{
    const obs::ServeMetricIds& serve = hub_->serve();
    if (state_.load() != DaemonState::Running) {
        // A swap racing a drain loses: the daemon is on its way down and
        // must not start publishing new state mid-teardown.
        SwapOutcome outcome;
        outcome.generation = index_->generation();
        outcome.reason = "daemon is not running (draining or stopped)";
        controlSlab()->add(serve.reloadsRejected);
        return outcome;
    }
    SwapOutcome outcome = index_->swap(path, hub_.get());
    obs::Registry::ThreadSlab* slab = controlSlab();
    if (outcome.accepted) {
        slab->add(serve.reloads);
        slab->raise(serve.generation, outcome.generation);
        slab->observe(serve.reloadLatency,
                      static_cast<uint64_t>(outcome.loadSeconds * 1e9));
    } else {
        slab->add(serve.reloadsRejected);
    }
    accountRetired();
    return outcome;
}

std::string
Daemon::statsJson()
{
    const uint64_t now = util::nowNanos();
    obs::Snapshot snap = hub_->registry().snapshot();
    const obs::ServeMetricIds& serve = hub_->serve();
    const std::array<obs::RequestTracer::StageExemplar, obs::kSpanStages>
        stage_exemplars = tracer_->stageExemplars();

    obs::JsonWriter w(/*pretty=*/false);
    w.beginObject();
    w.field("minigiraffe_stats", uint64_t{1});
    w.field("state", daemonStateName(state_.load()));
    w.field("now_ns", now);
    w.field("generation", index_->generation());
    w.field("reloads", snap.valueOf("mg_serve_reloads_total"));
    w.field("reloads_rejected",
            snap.valueOf("mg_serve_reloads_rejected_total"));
    w.field("generations_retired",
            snap.valueOf("mg_serve_generations_retired_total"));

    w.key("queue").beginObject();
    w.field("depth", static_cast<uint64_t>(queue_->depth()));
    w.field("capacity", static_cast<uint64_t>(queue_->capacity()));
    w.field("in_flight", static_cast<uint64_t>(queue_->inFlight()));
    w.field("peak_depth", static_cast<uint64_t>(queue_->peakDepth()));
    w.endObject();

    const std::vector<TenantLoad> loads = queue_->tenantLoads();
    w.key("tenants").beginArray();
    for (size_t t = 0; t < serve.tenants.size(); ++t) {
        const std::string& name = serve.tenants[t];
        auto named = [&name](const char* stem) {
            return std::string(stem) + "{" + obs::promLabel("tenant", name) +
                   "}";
        };
        w.beginObject();
        w.field("name", name);
        w.field("queued", static_cast<uint64_t>(
                              t < loads.size() ? loads[t].queued : 0));
        w.field("in_flight", static_cast<uint64_t>(
                                 t < loads.size() ? loads[t].inFlight : 0));
        w.field("accepted", snap.valueOf(named("mg_serve_accepted_total")));
        w.field("completed",
                snap.valueOf(named("mg_serve_completed_total")));
        w.field("shed", snap.valueOf(named("mg_serve_shed_total")));
        w.field("deadline_shed",
                snap.valueOf(named("mg_serve_deadline_shed_total")));
        w.field("errors", snap.valueOf(named("mg_serve_errors_total")));
        w.field("ewma_service_ns",
                tenantEwmaNanos_[t].load(std::memory_order_relaxed));
        w.endObject();
    }
    w.endArray();

    w.key("workers").beginArray();
    for (size_t wk = 0; wk < params_.workers; ++wk) {
        const uint64_t beat =
            board_.slot(wk).beatNanos.load(std::memory_order_acquire);
        w.beginObject();
        w.field("worker", static_cast<uint64_t>(wk));
        w.field("busy", beat != 0);
        w.field("heartbeat_age_ns",
                beat != 0 && now > beat ? now - beat : uint64_t{0});
        w.endObject();
    }
    w.endArray();

    w.key("stages").beginArray();
    for (size_t s = 0; s < obs::kSpanStages; ++s) {
        const auto stage = static_cast<obs::SpanStage>(s);
        const std::string metric_name =
            std::string("mg_serve_stage_ns{") +
            obs::promLabel("stage", obs::spanStageName(stage)) + "}";
        const obs::MetricValue* m = snap.find(metric_name);
        w.beginObject();
        w.field("stage", obs::spanStageName(stage));
        if (m != nullptr) {
            w.field("count", m->hist.count());
            w.field("sum_ns", m->hist.sumNanos());
            w.field("mean_ns",
                    static_cast<uint64_t>(m->hist.meanNanos()));
            w.field("p50_ns", static_cast<uint64_t>(m->hist.p50()));
            w.field("p99_ns", static_cast<uint64_t>(m->hist.p99()));
        }
        if (stage_exemplars[s].traceId != 0) {
            w.field("exemplar",
                    obs::traceIdHex(stage_exemplars[s].traceId));
            w.field("exemplar_ns", stage_exemplars[s].nanos);
        }
        w.endObject();
    }
    w.endArray();

    w.key("slowest_in_flight").beginArray();
    for (const obs::RequestTracer::InFlightEntry& entry :
         tracer_->inFlight()) {
        w.beginObject();
        w.field("worker", static_cast<uint64_t>(entry.lane));
        w.field("trace", obs::traceIdHex(entry.traceId));
        w.field("age_ns",
                now > entry.beginNanos ? now - entry.beginNanos
                                       : uint64_t{0});
        w.endObject();
    }
    w.endArray();

    w.key("trace").beginObject();
    w.field("sample_rate", params_.traceSample);
    w.field("committed", tracer_->committedTotal());
    w.field("dropped_spans", tracer_->droppedSpans());
    w.endObject();

    w.endObject();
    return w.str();
}

void
Daemon::accountRetired()
{
    std::lock_guard<std::mutex> lock(retireAccountMutex_);
    const uint64_t released =
        index_->retiredTotal() - index_->retiredAlive();
    const uint64_t seen = retiredAccounted_.load();
    if (released > seen) {
        controlSlab()->add(hub_->serve().generationsRetired,
                           released - seen);
        retiredAccounted_.store(released);
    }
}

void
Daemon::handleRequest(std::shared_ptr<Connection>& conn,
                      Request&& request, uint64_t frame_arrival_nanos,
                      uint64_t accept_end_nanos, uint64_t decode_end_nanos)
{
    const obs::ServeMetricIds& serve = hub_->serve();
    obs::Registry::ThreadSlab* slab = controlSlab();
    slab->add(serve.requests);

    size_t tenant = request.tenant.empty()
                        ? 0
                        : queue_->tenantIndex(request.tenant);
    if (tenant == SIZE_MAX) {
        Response error;
        error.id = request.id;
        error.status = ResponseStatus::Error;
        error.message = util::cat("unknown tenant '", request.tenant, "'");
        respond(*conn, error);
        return;
    }
    const obs::ServeTenantMetricIds& ids = serve.perTenant[tenant];

    // Trace decision: a client-tagged request is always traced; an
    // untagged one is traced when it wins the head-sampling coin flip
    // (the daemon mints its id and echoes it in the response).
    std::unique_ptr<obs::TraceContext> trace;
    if (request.traceId != 0 ||
        (params_.traceSample > 0.0 && tracer_->sampleHead())) {
        trace = std::make_unique<obs::TraceContext>();
        trace->traceId =
            request.traceId != 0 ? request.traceId : tracer_->mint();
        request.traceId = trace->traceId;
        trace->tenant = queue_->tenant(tenant).name;
        const auto reader_lane =
            static_cast<uint32_t>(tracer_->controlLane());
        const uint64_t arrival = frame_arrival_nanos != 0
                                     ? frame_arrival_nanos
                                     : accept_end_nanos;
        trace->beginNanos = arrival;
        trace->span(obs::SpanStage::Accept, reader_lane, arrival,
                    accept_end_nanos);
        trace->span(obs::SpanStage::Decode, reader_lane, accept_end_nanos,
                    decode_end_nanos);
    }

    if (request.reads.size() > params_.maxReadsPerRequest) {
        slab->add(ids.errors);
        Response error;
        error.id = request.id;
        error.status = ResponseStatus::Error;
        error.generation = index_->generation();
        error.message =
            util::cat("request carries ", request.reads.size(),
                      " reads; limit is ", params_.maxReadsPerRequest);
        endRequest(*conn, error, trace, tracer_->controlLane(), "error",
                   slab);
        return;
    }

    if (state_.load() != DaemonState::Running) {
        slab->add(ids.shed);
        Response shutdown;
        shutdown.id = request.id;
        shutdown.status = ResponseStatus::ShuttingDown;
        shutdown.generation = index_->generation();
        shutdown.retryAfterMillis = params_.retryBaseMillis;
        endRequest(*conn, shutdown, trace, tracer_->controlLane(),
                   "shutting-down", slab);
        return;
    }

    // Fault site: the enqueue step itself failing.
    fault::inject("serve.enqueue");

    // Pin the serving generation *at admission*: whatever swaps publish
    // while this request waits or maps, its whole index set stays alive
    // until its response is written.  The span times the pin mutex.
    const uint64_t pin_start = trace ? util::nowNanos() : 0;
    IndexManager::Handle handle = index_->pin();
    if (trace) {
        trace->span(obs::SpanStage::GenerationPin,
                    static_cast<uint32_t>(tracer_->controlLane()),
                    pin_start, util::nowNanos());
        trace->generation = handle->number;
    }

    Job job;
    job.conn = conn;
    job.request = std::move(request);
    job.tenant = tenant;
    job.admittedNanos = util::nowNanos();
    job.deadlineNanos =
        job.request.deadlineMicros != 0
            ? job.admittedNanos + job.request.deadlineMicros * 1000
            : 0;
    job.handle = std::move(handle);
    job.trace = std::move(trace);
    AdmissionVerdict verdict = queue_->tryPush(tenant, std::move(job));
    if (verdict.admitted()) {
        slab->add(ids.accepted);
        slab->raise(serve.queueDepth, verdict.depth);
        return;
    }
    // Rejected: tryPush left the job whole, so its own trace is the one
    // committed with the shed.
    slab->add(ids.shed);
    Response shed;
    shed.id = job.request.id;
    shed.status = verdict.outcome == Admission::Closed
                      ? ResponseStatus::ShuttingDown
                      : ResponseStatus::RetryAfter;
    shed.generation = job.handle->number;
    shed.retryAfterMillis = verdict.retryAfterMillis;
    endRequest(*conn, shed, job.trace, tracer_->controlLane(),
               verdict.outcome == Admission::Closed ? "shutting-down"
                                                    : "retry-after",
               slab);
}

void
Daemon::workerLoop(size_t worker)
{
    Job job;
    size_t tenant = 0;
    while (queue_->pop(job, tenant)) {
        const uint64_t popped = util::nowNanos();
        // SLO sweep: queued requests whose client deadline can no longer
        // be met are answered DEADLINE_SHED now, not mapped later.
        shedExpiredJobs(worker);
        try {
            processJob(worker, job, popped);
        } catch (const util::Error& err) {
            hub_->slab(worker)->add(
                hub_->serve().perTenant[tenant].errors);
            Response error;
            error.id = job.request.id;
            error.status = ResponseStatus::Error;
            error.generation = job.handle->number;
            error.message = err.what();
            if (job.trace) {
                // The mapping threw mid-request: unwind the in-flight
                // marks and keep the partial span tree with an error
                // disposition.
                hub_->flight().ring(worker)->setTrace(0);
                tracer_->endInFlight(worker);
            }
            endRequest(*job.conn, error, job.trace, worker, "error",
                       hub_->slab(worker));
        }
        // Drop the pin before blocking on the next pop: an idle worker
        // must not keep a retired generation's arenas mapped.
        job.conn.reset();
        job.handle.reset();
        job.trace.reset();
        queue_->complete(tenant);
    }
}

void
Daemon::shedExpiredJobs(size_t worker)
{
    const uint64_t now = util::nowNanos();
    const uint64_t ewma = serviceEwmaNanos_.load(std::memory_order_relaxed);
    std::vector<std::pair<size_t, Job>> shed;
    queue_->shedIf(
        [&](const Job& queued) {
            return queued.deadlineNanos != 0 &&
                   now + ewma >= queued.deadlineNanos;
        },
        shed);
    if (shed.empty()) {
        return;
    }
    const obs::ServeMetricIds& serve = hub_->serve();
    obs::Registry::ThreadSlab* slab = hub_->slab(worker);
    for (std::pair<size_t, Job>& entry : shed) {
        Job& job = entry.second;
        slab->add(serve.perTenant[entry.first].deadlineShed);
        Response response;
        response.id = job.request.id;
        response.status = ResponseStatus::DeadlineShed;
        response.generation = job.handle->number;
        if (job.trace) {
            // The request died in the queue; close its span tree with the
            // wait it actually endured.  The sweep runs on this worker's
            // thread, so committing through its lane is single-writer.
            job.trace->span(obs::SpanStage::QueueWait,
                            static_cast<uint32_t>(tracer_->controlLane()),
                            job.admittedNanos, now);
        }
        endRequest(*job.conn, response, job.trace, worker, "deadline-shed",
                   slab);
        job.conn.reset();
        job.handle.reset();
    }
}

void
Daemon::processJob(size_t worker, Job& job, uint64_t popped_nanos)
{
    const obs::ServeMetricIds& serve = hub_->serve();
    const obs::ServeTenantMetricIds& ids = serve.perTenant[job.tenant];
    obs::Registry::ThreadSlab* slab = hub_->slab(worker);

    const uint64_t generation = job.handle->number;
    obs::TraceContext* trace = job.trace.get();
    const auto lane = static_cast<uint32_t>(worker);
    const uint64_t queue_wait =
        popped_nanos > job.admittedNanos ? popped_nanos - job.admittedNanos
                                         : 0;
    if (trace != nullptr) {
        // The queue-wait span lands on the worker's track: it is the
        // first span of the request's worker-side life, and the flow
        // arrow from the reader track attaches to it.
        trace->span(obs::SpanStage::QueueWait, lane, job.admittedNanos,
                    popped_nanos);
    }

    // Past the drain deadline, queued work is shed, not mapped: the
    // drain contract is "finish or degrade within the deadline", and
    // these requests would start after it.
    uint64_t drain_deadline = drainDeadlineNanos_.load();
    if (drain_deadline != 0 && util::nowNanos() >= drain_deadline) {
        slab->add(ids.shed);
        slab->add(serve.drainShed);
        Response shed;
        shed.id = job.request.id;
        shed.status = ResponseStatus::ShuttingDown;
        shed.generation = generation;
        shed.retryAfterMillis = params_.retryBaseMillis;
        shed.queueNanos = trace != nullptr ? queue_wait : 0;
        endRequest(*job.conn, shed, job.trace, worker, "drain-shed", slab);
        return;
    }

    // The client deadline lapsed while this job waited (or the sweep
    // missed it by a beat): refuse rather than map into the void.
    if (job.deadlineNanos != 0 && util::nowNanos() >= job.deadlineNanos) {
        slab->add(ids.deadlineShed);
        Response shed;
        shed.id = job.request.id;
        shed.status = ResponseStatus::DeadlineShed;
        shed.generation = generation;
        shed.queueNanos = trace != nullptr ? queue_wait : 0;
        endRequest(*job.conn, shed, job.trace, worker, "deadline-shed",
                   slab);
        return;
    }

    obs::StageAccumulator stage_nanos;
    if (trace != nullptr) {
        // While this request maps, the flight recorder attributes its
        // reads to the trace id and the in-flight table names it — so
        // watchdog cancels, crash dumps, and mg_top all say which
        // *request* was on the table, not just which read.
        hub_->flight().ring(worker)->setTrace(trace->traceId);
        tracer_->beginInFlight(worker, trace->traceId, trace->beginNanos);
    }

    resilience::WorkBudget budget =
        requestBudget(job.request, params_.maxBudget);
    const uint64_t map_start = util::nowNanos();
    giraffe::SessionResult result = job.handle->session->map(
        worker, job.request.reads, budget, &board_, hub_.get(), nullptr,
        trace != nullptr ? &stage_nanos : nullptr);
    const uint64_t map_end = util::nowNanos();
    const uint64_t service = map_end - map_start;
    const uint64_t prev =
        serviceEwmaNanos_.load(std::memory_order_relaxed);
    serviceEwmaNanos_.store(
        prev == 0 ? service : (7 * prev + service) / 8,
        std::memory_order_relaxed);
    std::atomic<uint64_t>& tenant_ewma = tenantEwmaNanos_[job.tenant];
    const uint64_t tenant_prev =
        tenant_ewma.load(std::memory_order_relaxed);
    tenant_ewma.store(tenant_prev == 0 ? service
                                       : (7 * tenant_prev + service) / 8,
                      std::memory_order_relaxed);

    if (trace != nullptr) {
        // The mapping stages were accumulated across the request's reads;
        // lay them end to end inside the map window so the trace shows
        // where the request's mapping time went without a span per read.
        uint64_t at = map_start;
        for (const auto& [stage, span] : obs::kMapSpans) {
            const uint64_t ns =
                stage_nanos.nanos[static_cast<size_t>(stage)];
            if (ns == 0) {
                continue;
            }
            trace->span(span, lane, at, at + ns);
            at += ns;
        }
    }

    Response ok;
    ok.id = job.request.id;
    ok.status = ResponseStatus::Ok;
    ok.generation = generation;
    ok.mappedReads = result.mappedReads;
    ok.degradedReads = result.degradedReads;
    ok.gaf = std::move(result.gaf);
    if (trace != nullptr) {
        ok.traceId = trace->traceId;
        ok.queueNanos = queue_wait;
        ok.mapNanos = service;
    }
    const uint64_t write_start = util::nowNanos();
    const bool sent = respond(*job.conn, ok);
    if (trace != nullptr) {
        trace->span(obs::SpanStage::Write, lane, write_start,
                    util::nowNanos());
        hub_->flight().ring(worker)->setTrace(0);
        tracer_->endInFlight(worker);
        commitTrace(worker, std::move(*job.trace),
                    !sent ? "error"
                          : (result.degradedReads > 0 ? "degraded" : "ok"),
                    slab);
        job.trace.reset();
    }
    if (!sent) {
        // The peer vanished mid-request; the work is done but the
        // response has nowhere to go.  Count it so no request is ever
        // silently unaccounted for.
        slab->add(ids.errors);
        std::fprintf(stderr,
                     "mgd: response %llu (tenant %s) lost: peer gone\n",
                     static_cast<unsigned long long>(job.request.id),
                     queue_->tenant(job.tenant).name.c_str());
        return;
    }
    slab->add(ids.completed);
    if (result.degradedReads > 0) {
        slab->add(ids.degraded);
    }
    slab->observe(ids.latency, util::nowNanos() - job.admittedNanos);
}

bool
Daemon::respond(Connection& conn, const Response& response)
{
    if (!conn.open.load()) {
        return false;
    }
    std::vector<uint8_t> payload = encodeResponse(response);
    std::lock_guard<std::mutex> lock(conn.writeMutex);
    util::Status status;
    try {
        status = writeFrame(conn.fd, payload);
    } catch (const util::Error&) {
        closeConnection(conn);
        return false;
    }
    if (!status.ok()) {
        closeConnection(conn);
        return false;
    }
    return true;
}

void
Daemon::closeConnection(Connection& conn)
{
    // Shut down both directions but leave the close() of the fd to the
    // Connection destructor: a worker may still hold the shared_ptr and
    // the fd number must not be recycled under it.
    bool was_open = conn.open.exchange(false);
    if (was_open) {
        ::shutdown(conn.fd, SHUT_RDWR);
    }
}

void
Daemon::requestDrain()
{
    DaemonState expected = DaemonState::Running;
    if (!state_.compare_exchange_strong(expected,
                                        DaemonState::Draining)) {
        return; // already draining/stopped
    }
    controlSlab()->add(hub_->serve().drains);
    drainDeadlineNanos_.store(
        util::nowNanos() +
        static_cast<uint64_t>(params_.drainDeadlineSeconds * 1e9));
    // Stop admitting and wake the acceptor out of poll().
    queue_->close();
    if (wakePipe_[1] >= 0) {
        uint8_t byte = 1;
        (void)io::writeFull(wakePipe_[1], &byte, 1);
    }
}

void
Daemon::stop()
{
    if (state_.load() == DaemonState::Idle ||
        state_.load() == DaemonState::Stopped) {
        state_.store(DaemonState::Stopped);
        return;
    }
    requestDrain();

    // Drain supervision: give queued + in-flight work until the deadline,
    // then force — cancel tokens make in-flight requests return degraded
    // at their next cancellation point, and workers shed what is still
    // queued with ShuttingDown responses.
    const uint64_t deadline = drainDeadlineNanos_.load();
    while (queue_->depth() > 0 || queue_->inFlight() > 0) {
        if (util::nowNanos() >= deadline) {
            report_.drainClean = false;
            controlSlab()->add(hub_->serve().drainForced,
                               queue_->inFlight());
            for (size_t w = 0; w < params_.workers; ++w) {
                board_.slot(w).token.cancel(
                    resilience::CancelReason::Deadline);
            }
            break;
        }
        ::usleep(2000);
    }
    for (std::thread& worker : workers_) {
        worker.join();
    }
    workers_.clear();
    watchdog_->stop();

    // Every response is out; now unblock the readers and the acceptor.
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (const std::shared_ptr<Connection>& conn : connections_) {
            closeConnection(*conn);
        }
    }
    if (acceptor_.joinable()) {
        acceptor_.join();
    }
    {
        std::lock_guard<std::mutex> lock(connMutex_);
        for (std::thread& reader : readers_) {
            reader.join();
        }
        readers_.clear();
        connections_.clear();
    }
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    for (int& fd : wakePipe_) {
        if (fd >= 0) {
            ::close(fd);
            fd = -1;
        }
    }
    ::unlink(params_.socketPath.c_str());

    // Workers are joined, so the last pinned handles are gone; fold any
    // newly released generations into the metric before the snapshot.
    accountRetired();

    // Trace exports (post-join: the span buffers are quiescent).
    report_.tracedRequests = tracer_->committedTotal();
    if (!params_.traceOut.empty()) {
        tracer_->writeChromeTrace(params_.traceOut, "mgd");
    }
    if (!params_.traceDumpPrefix.empty()) {
        // One dump per tail exemplar, named by trace id; the flight
        // recorder rings provide the "what else was on the table"
        // context shared by every dump.
        std::vector<obs::FlightEntry> flight;
        for (size_t wk = 0; wk < params_.workers; ++wk) {
            std::vector<obs::FlightEntry> entries =
                hub_->flight().snapshot(wk);
            flight.insert(flight.end(), entries.begin(), entries.end());
        }
        for (const obs::RequestTracer::Exemplar& exemplar :
             tracer_->exemplars()) {
            obs::writeTraceDump(params_.traceDumpPrefix +
                                    obs::traceIdHex(exemplar.ctx.traceId) +
                                    ".mgtrace",
                                exemplar, flight);
            ++report_.traceDumps;
        }
    }

    // Final accounting from the registry (counters are already summed
    // across worker + control slabs by snapshot()).
    obs::Snapshot snap = hub_->registry().snapshot();
    const obs::ServeMetricIds& serve = hub_->serve();
    report_.accepted = 0;
    report_.completed = 0;
    report_.shed = 0;
    report_.deadlineShed = 0;
    report_.errors = 0;
    for (const std::string& tenant : serve.tenants) {
        auto named = [&tenant](const char* stem) {
            return std::string(stem) + "{" +
                   obs::promLabel("tenant", tenant) + "}";
        };
        report_.accepted += snap.valueOf(named("mg_serve_accepted_total"));
        report_.completed +=
            snap.valueOf(named("mg_serve_completed_total"));
        report_.shed += snap.valueOf(named("mg_serve_shed_total"));
        report_.deadlineShed +=
            snap.valueOf(named("mg_serve_deadline_shed_total"));
        report_.errors += snap.valueOf(named("mg_serve_errors_total"));
    }
    report_.drainShed = snap.valueOf("mg_serve_drain_shed_total");
    report_.badFrames = snap.valueOf("mg_serve_bad_frames_total");
    report_.reloads = snap.valueOf("mg_serve_reloads_total");
    report_.reloadsRejected =
        snap.valueOf("mg_serve_reloads_rejected_total");
    report_.generationsRetired =
        snap.valueOf("mg_serve_generations_retired_total");
    report_.finalGeneration = index_->generation();
    report_.watchdogCancels = watchdog_->events().size();
    state_.store(DaemonState::Stopped);
}

std::vector<TenantConfig>
parseTenantSpec(const std::string& spec)
{
    std::vector<TenantConfig> tenants;
    size_t start = 0;
    while (start <= spec.size()) {
        size_t comma = spec.find(',', start);
        std::string entry =
            spec.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        start = comma == std::string::npos ? spec.size() + 1 : comma + 1;
        if (entry.empty()) {
            continue;
        }
        TenantConfig config;
        size_t colon = entry.find(':');
        config.name = entry.substr(0, colon);
        MG_CHECK(!config.name.empty(), "tenant spec '", entry,
                 "' has no name");
        while (colon != std::string::npos) {
            size_t next = entry.find(':', colon + 1);
            std::string field =
                entry.substr(colon + 1, next == std::string::npos
                                            ? std::string::npos
                                            : next - colon - 1);
            colon = next;
            size_t eq = field.find('=');
            MG_CHECK(eq != std::string::npos, "tenant field '", field,
                     "' is not key=value");
            std::string key = field.substr(0, eq);
            std::string text = field.substr(eq + 1);
            char* end = nullptr;
            uint64_t value = std::strtoull(text.c_str(), &end, 10);
            MG_CHECK(end != nullptr && *end == '\0' && !text.empty(),
                     "tenant field '", field, "' is not a number");
            if (key == "weight") {
                config.weight = static_cast<uint32_t>(value);
            } else if (key == "inflight") {
                config.maxInFlight = value;
            } else if (key == "queued") {
                config.maxQueued = value;
            } else {
                MG_CHECK(false, "unknown tenant field '", key, "'");
            }
        }
        tenants.push_back(std::move(config));
    }
    return tenants;
}

} // namespace mg::serve
