/**
 * @file
 * mgd — mapping as a service.  One Daemon owns a listening Unix-domain
 * socket, an acceptor, per-connection reader threads, a bounded
 * multi-tenant AdmissionQueue, a pool of mapping workers over one shared
 * MapSession, and a watchdog supervising those workers.
 *
 * Request lifecycle:
 *
 *   accept -> readFrame -> decodeRequest -> admission (tryPush)
 *     admitted:  queued; a worker pops it by weighted fair order,
 *                maps it under its WorkBudget (over-budget reads return
 *                best-so-far GAF tagged dg:Z:), writes the Ok response.
 *     rejected:  RETRY_AFTER response written immediately (backpressure
 *                is explicit, the acceptor never blocks on a full queue).
 *     draining:  ShuttingDown response; clients move to another instance.
 *
 * Graceful drain (SIGTERM/SIGINT via requestDrain, or stop()):
 *
 *   Running -> Draining: stop accepting connections, answer new requests
 *     ShuttingDown, close the queue.  Workers keep finishing queued +
 *     in-flight requests.
 *   Draining -> Stopped: when everything drained, or at the drain
 *     deadline: worker CancelTokens fire (in-flight requests return
 *     degraded within one cancellation point) and still-queued requests
 *     are shed with ShuttingDown.  Every admitted request gets a
 *     response or a logged shed; then sockets close, threads join,
 *     metrics can be flushed, and the process exits 0.
 *
 * Fault sites serve.accept / serve.read / serve.write / serve.enqueue
 * let the chaos tests inject failures at each boundary; the invariant
 * under all of them is "the daemon never crashes".
 */
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "giraffe/session.h"
#include "obs/hub.h"
#include "resilience/budget.h"
#include "sched/watchdog.h"
#include "serve/frame.h"
#include "serve/index_manager.h"
#include "serve/queue.h"

namespace mg::serve {

/** Daemon configuration. */
struct DaemonParams
{
    std::string socketPath;
    /** Mapping worker threads (and MapSession worker slots). */
    size_t workers = 2;
    /** Bound on queued (not yet mapping) requests across all tenants. */
    size_t queueCapacity = 64;
    /** Tenant QoS classes; empty means one "default" tenant. */
    std::vector<TenantConfig> tenants;
    /** RETRY_AFTER base; grows with queue depth. */
    uint32_t retryBaseMillis = 25;
    /** Budget every request is clamped to (0 fields = no ceiling). */
    resilience::WorkBudget maxBudget;
    /** Requests carrying more reads than this are answered Error. */
    size_t maxReadsPerRequest = 4096;
    /** Seconds drain waits for in-flight + queued work before forcing. */
    double drainDeadlineSeconds = 5.0;
    /** Supervise workers; a stalled request is cancelled, not eternal. */
    bool watchdog = true;
    sched::WatchdogParams watchdogParams;
    giraffe::SessionParams session;
    /**
     * How the served pangenome got into memory and how long that took.
     * The daemon fills both from the container it serves (any value set
     * here is overwritten) and echoes them in the DaemonReport, so
     * service logs say whether this instance shares its index pages with
     * its neighbours.
     */
    std::string indexLoadMode;
    double indexLoadSeconds = 0.0;
    /**
     * Head-sampling probability for tracing untagged requests, [0, 1].
     * Client-tagged requests (Request.traceId != 0) are always traced
     * regardless of this rate.  Tracing is timing-only: a traced
     * request's GAF is byte-identical to an untraced one's.
     */
    double traceSample = 0.0;
    /** Chrome-trace JSON written at stop() (Perfetto-loadable; empty =
     *  no export). */
    std::string traceOut;
    /** Tail-based exemplar ring: always keep the slowest N traced
     *  requests' full span trees, whatever the sampling rate. */
    size_t traceExemplars = 8;
    /** Prefix for slow-request `.mgtrace` dumps written at stop(), one
     *  per exemplar (empty = no dumps). */
    std::string traceDumpPrefix;
    /** Flight-recorder ring slots per worker (the last N reads each
     *  worker touched, named in watchdog and crash dumps). */
    size_t flightRingSize = obs::FlightRecorder::kDefaultRingSize;
};

/** Daemon lifecycle state. */
enum class DaemonState : uint8_t
{
    Idle = 0,
    Running,
    Draining,
    Stopped,
};

/** End-of-life accounting (stable after stop() returns). */
struct DaemonReport
{
    uint64_t accepted = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;
    uint64_t drainShed = 0;
    /** Queued requests shed because their client deadline lapsed. */
    uint64_t deadlineShed = 0;
    uint64_t errors = 0;
    uint64_t badFrames = 0;
    uint64_t watchdogCancels = 0;
    /** Hot swaps published / rejected over the daemon's lifetime. */
    uint64_t reloads = 0;
    uint64_t reloadsRejected = 0;
    /** Old generations fully released (arenas unmapped) by stop time. */
    uint64_t generationsRetired = 0;
    /** Generation serving when the daemon stopped (1 = never swapped). */
    uint64_t finalGeneration = 1;
    /** Drain finished inside the deadline (no forcing needed). */
    bool drainClean = true;
    /** Traced requests committed over the daemon's lifetime. */
    uint64_t tracedRequests = 0;
    /** Slow-request `.mgtrace` dumps written at stop(). */
    uint64_t traceDumps = 0;
    /** Index load mode and load seconds of the served container. */
    std::string indexLoadMode;
    double indexLoadSeconds = 0.0;
};

class Daemon
{
  public:
    /** Serve a pangenome loaded from the container at `source`; RELOAD
     *  and SIGHUP swap in replacements and retire it cleanly. */
    Daemon(io::IndexedPangenome&& pangenome, std::string source,
           DaemonParams params);

    ~Daemon();

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /** Bind the socket and start acceptor + workers + watchdog. */
    void start();

    /**
     * Hot-swap the serving pangenome to the container at `path`
     * (SIGHUP and the RELOAD control frame both land here).  Rejected
     * while draining; otherwise delegates to IndexManager::swap and
     * accounts the outcome in the serve metrics.  Thread-safe.
     */
    SwapOutcome reloadIndex(const std::string& path);

    /** The epoch manager (tests: pin/retire introspection). */
    IndexManager& indexManager() { return *index_; }

    /**
     * Begin graceful drain (async-signal-unsafe; call from a thread, not
     * a signal handler — mgd observes its stop flag and calls this).
     * Idempotent.
     */
    void requestDrain();

    /**
     * Drain (if not already draining) and block until everything is
     * down.  Safe to call once after start(); also runs in ~Daemon.
     */
    void stop();

    DaemonState state() const { return state_.load(); }
    obs::Hub& hub() { return *hub_; }
    const DaemonReport& report() const { return report_; }
    const DaemonParams& params() const { return params_; }
    /** The request tracer (tests: exemplar/in-flight introspection). */
    obs::RequestTracer& tracer() { return *tracer_; }

    /**
     * Live introspection snapshot as JSON — what a ControlOp::Stats
     * frame answers: lifecycle state, generation + reload counters,
     * per-tenant queue depth / in-flight / counters / service EWMA,
     * worker heartbeat ages, per-stage latency histograms with trace-id
     * exemplars, and the slowest in-flight traces.  Thread-safe.
     */
    std::string statsJson();

  private:
    /** One client connection; workers and the reader share the fd. */
    struct Connection
    {
        ~Connection();

        int fd = -1;
        /** Serializes response frames (several workers, one stream). */
        std::mutex writeMutex;
        std::atomic<bool> open{true};
    };

    /** One admitted request waiting for (or holding) a worker. */
    struct Job
    {
        std::shared_ptr<Connection> conn;
        Request request;
        size_t tenant = 0;
        uint64_t admittedNanos = 0;
        /** Absolute client deadline (nowNanos domain); 0 = none. */
        uint64_t deadlineNanos = 0;
        /** The generation pinned at admission; the swap path cannot
         *  unmap these arenas while this job holds the handle. */
        IndexManager::Handle handle;
        /** Span context when the request is traced (null otherwise);
         *  rides the job from the reader thread to its worker. */
        std::unique_ptr<obs::TraceContext> trace;
    };

    void acceptorLoop();
    void readerLoop(std::shared_ptr<Connection> conn);
    void workerLoop(size_t worker);
    void handleRequest(std::shared_ptr<Connection>& conn,
                       Request&& request, uint64_t frame_arrival_nanos,
                       uint64_t accept_end_nanos,
                       uint64_t decode_end_nanos);
    void handleControl(std::shared_ptr<Connection>& conn,
                       ControlRequest&& control);
    void processJob(size_t worker, Job& job, uint64_t popped_nanos);
    /** Stamp end + disposition, feed the stage histograms, and append
     *  the finished context to `lane`'s span buffer. */
    void commitTrace(size_t lane, obs::TraceContext&& ctx,
                     std::string_view disposition,
                     obs::Registry::ThreadSlab* slab);
    /** End a request that will not be answered Ok: a traced one's id is
     *  stamped into `response` and its context committed to `lane` as
     *  `disposition`, then the response is written. */
    void endRequest(Connection& conn, Response& response,
                    std::unique_ptr<obs::TraceContext>& trace, size_t lane,
                    std::string_view disposition,
                    obs::Registry::ThreadSlab* slab);
    /** Shed still-queued jobs whose client deadline can no longer be
     *  met (DEADLINE_SHED), using the service-time EWMA as the cost
     *  estimate for work not yet started. */
    void shedExpiredJobs(size_t worker);
    /** Fold newly expired retired generations into the metric. */
    void accountRetired();
    bool respond(Connection& conn, const Response& response);
    void closeConnection(Connection& conn);
    obs::Registry::ThreadSlab* controlSlab();

    DaemonParams params_;
    std::unique_ptr<obs::Hub> hub_;
    std::unique_ptr<IndexManager> index_;
    std::unique_ptr<AdmissionQueue<Job>> queue_;
    sched::HeartbeatBoard board_;
    std::unique_ptr<sched::Watchdog> watchdog_;
    std::unique_ptr<obs::RequestTracer> tracer_;

    /** EWMA of per-request mapping time (relaxed; heuristic only). */
    std::atomic<uint64_t> serviceEwmaNanos_{0};
    /** Per-tenant EWMA of mapping time, index-aligned with the tenant
     *  configs (relaxed; introspection only). */
    std::unique_ptr<std::atomic<uint64_t>[]> tenantEwmaNanos_;
    /** Retired generations already counted into the metric. */
    std::atomic<uint64_t> retiredAccounted_{0};
    /** Serializes accountRetired's read-then-add. */
    std::mutex retireAccountMutex_;

    std::atomic<DaemonState> state_{DaemonState::Idle};
    /** Absolute drain cutoff (nowNanos domain); 0 until draining. */
    std::atomic<uint64_t> drainDeadlineNanos_{0};

    int listenFd_ = -1;
    /** Self-pipe waking the acceptor's poll() for drain. */
    int wakePipe_[2] = { -1, -1 };

    std::thread acceptor_;
    std::vector<std::thread> workers_;
    std::mutex connMutex_;
    std::vector<std::shared_ptr<Connection>> connections_;
    std::vector<std::thread> readers_;

    DaemonReport report_;
};

/**
 * Parse "name:weight=3:inflight=8:queued=16,name2,..." into tenant
 * configs (weight defaults 1, caps default unlimited).  Throws
 * util::Error on malformed specs.
 */
std::vector<TenantConfig> parseTenantSpec(const std::string& spec);

} // namespace mg::serve
