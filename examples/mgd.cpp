/**
 * @file
 * mgd — mapping as a service.  Maps one .mgz3 container and serves
 * mapping requests over a Unix-domain socket with admission control,
 * per-tenant QoS, explicit backpressure (RETRY_AFTER), per-request
 * deadlines, and graceful drain on SIGTERM/SIGINT (finish or degrade
 * in-flight work, flush metrics, exit 0).
 *
 * Run:  ./examples/mgd <graph.mgz3> --socket /tmp/mgd.sock [flags]
 *
 * make_inputs writes a container for any input set, e.g.
 * `make_inputs --input-set B-yeast --out-dir /tmp` -> /tmp/B-yeast.mgz3.
 *
 * The container is memory-mapped: startup is near-instant and N mgd
 * processes serving the same .mgz3 share one page-cache copy of the
 * index.
 *
 * Hot reload: `kill -HUP <pid>` (or a RELOAD control frame from
 * mg_client/mg_loadgen) swaps in a replacement container without
 * dropping a single in-flight or queued request.  SIGHUP re-loads the
 * path mgd was started with (publish the new file under the same name,
 * then signal); a control frame names an arbitrary path.  A replacement
 * that fails validation is rejected and the old index keeps serving.
 */
#include <poll.h>

#include <cstdio>
#include <memory>

#include "fault/fault.h"
#include "giraffe/run_summary.h"
#include "io/mgz.h"
#include "obs/emitter.h"
#include "obs/flight_recorder.h"
#include "obs/request_trace.h"
#include "serve/daemon.h"
#include "serve/stop.h"
#include "util/flags.h"
#include "util/timer.h"

int
main(int argc, char** argv)
try {
    mg::util::Flags flags("mgd");
    flags.define("socket", "", "Unix-domain socket path to serve on")
         .define("workers", "2", "mapping worker threads")
         .define("queue-capacity", "64",
                 "bound on queued requests across all tenants")
         .define("tenants", "",
                 "tenant QoS spec 'name:weight=3:inflight=8:queued=16,"
                 "name2,...' (empty = one 'default' tenant)")
         .define("retry-base-millis", "25",
                 "RETRY_AFTER base; the hint grows with queue depth")
         .define("max-reads-per-request", "4096",
                 "requests carrying more reads are answered Error")
         .define("drain-deadline", "5.0",
                 "seconds drain waits before cancelling in-flight work")
         .define("watchdog", "true",
                 "supervise workers; stalled requests are cancelled")
         .define("watchdog-stall", "5.0",
                 "seconds without a heartbeat before a worker counts "
                 "as stalled")
         .define("max-deadline", "0",
                 "ceiling on per-request wall-clock budget in seconds "
                 "(0 = requests choose freely)")
         .define("max-extend-steps", "0",
                 "ceiling on per-read extension-step caps (0 = none)")
         .define("max-gbwt-lookups", "0",
                 "ceiling on per-read GBWT-lookup caps (0 = none)")
         .define("fault", "",
                 "arm fault injection, e.g. 'serve.read=throw,limit=2'")
         .define("metrics-out", "",
                 "write metrics here (.prom = Prometheus text, anything "
                 "else = JSON snapshot series)")
         .define("metrics-interval", "0",
                 "rewrite --metrics-out every N seconds (0 = final only)")
         .define("trace-sample", "0",
                 "head-sampling probability for requests that arrive "
                 "without a client trace id (0 = only client-tagged "
                 "requests are traced)")
         .define("trace-out", "",
                 "write a Chrome-trace JSON of all committed request "
                 "traces here at drain (load in Perfetto)")
         .define("trace-exemplars", "8",
                 "keep the N slowest traced requests as exemplars")
         .define("trace-dump", "",
                 "write each slow-request exemplar as "
                 "<prefix><traceid>.mgtrace at drain (mg_verify "
                 "validates them)")
         .define("flight-ring", "16",
                 "per-worker flight-recorder ring size (last N reads "
                 "named in watchdog and crash dumps)");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }
    if (flags.str("socket").empty() || flags.positional().size() != 1) {
        std::fprintf(stderr,
                     "usage: mgd <graph.mgz3> --socket <path> [flags]\n");
        return 1;
    }
    if (!flags.str("fault").empty()) {
        mg::fault::armFromText(flags.str("fault"));
    }
    mg::serve::installStopHandlers();
    mg::serve::installReloadHandler();

    mg::util::WallTimer timer;
    const std::string index_path = flags.positional()[0];
    mg::io::IndexedPangenome loaded = mg::io::loadPangenome(index_path);
    std::printf("mgd: %zu nodes ready in %.2f s (%s load: %.3f s, "
                "%zu minimizer keys)\n",
                loaded.graph.numNodes(), timer.seconds(),
                mg::io::loadModeName(loaded.info.mode),
                loaded.info.loadSeconds, loaded.minimizers.numKeys());

    mg::serve::DaemonParams params;
    params.socketPath = flags.str("socket");
    params.workers = static_cast<size_t>(flags.integer("workers"));
    params.queueCapacity =
        static_cast<size_t>(flags.integer("queue-capacity"));
    if (!flags.str("tenants").empty()) {
        params.tenants = mg::serve::parseTenantSpec(flags.str("tenants"));
    }
    params.retryBaseMillis =
        static_cast<uint32_t>(flags.integer("retry-base-millis"));
    params.maxReadsPerRequest =
        static_cast<size_t>(flags.integer("max-reads-per-request"));
    params.drainDeadlineSeconds = flags.real("drain-deadline");
    params.watchdog = flags.boolean("watchdog");
    params.watchdogParams.stallSeconds = flags.real("watchdog-stall");
    params.maxBudget.wallSeconds = flags.real("max-deadline");
    params.maxBudget.maxExtendSteps =
        static_cast<uint64_t>(flags.integer("max-extend-steps"));
    params.maxBudget.maxGbwtLookups =
        static_cast<uint64_t>(flags.integer("max-gbwt-lookups"));
    params.traceSample = flags.real("trace-sample");
    params.traceOut = flags.str("trace-out");
    params.traceExemplars =
        static_cast<size_t>(flags.integer("trace-exemplars"));
    params.traceDumpPrefix = flags.str("trace-dump");
    params.flightRingSize =
        static_cast<size_t>(flags.integer("flight-ring"));

    // The pangenome moves into the daemon: the IndexManager owns the
    // mapping so a hot swap can retire and unmap it.
    mg::serve::Daemon daemon(std::move(loaded), index_path, params);
    daemon.start();
    // Fatal signals dump every worker's flight ring (read index, stage,
    // trace id) with async-signal-safe calls before re-raising.
    mg::obs::installCrashHandler(&daemon.hub().flight());
    std::unique_ptr<mg::obs::MetricsEmitter> emitter;
    if (!flags.str("metrics-out").empty()) {
        emitter = std::make_unique<mg::obs::MetricsEmitter>(
            daemon.hub().registry(), flags.str("metrics-out"),
            flags.real("metrics-interval"));
        emitter->start();
    }
    std::printf("mgd: serving on %s (%zu workers, queue %zu",
                params.socketPath.c_str(), params.workers,
                params.queueCapacity);
    for (const mg::serve::TenantConfig& tenant : daemon.params().tenants) {
        std::printf(", tenant %s w=%llu", tenant.name.c_str(),
                    static_cast<unsigned long long>(tenant.weight));
    }
    std::printf(")\n");
    std::fflush(stdout);

    // Sleep until SIGTERM/SIGINT; the self-pipe makes both stop and
    // reload signals poll()-able without busy-waiting.  SIGHUP re-loads
    // the container mgd was started with.
    while (!mg::serve::stopRequested()) {
        struct pollfd pfd;
        pfd.fd = mg::serve::stopFd();
        pfd.events = POLLIN;
        ::poll(&pfd, 1, 1000);
        if (mg::serve::reloadRequested()) {
            mg::serve::clearReloadRequest();
            mg::serve::SwapOutcome outcome =
                daemon.reloadIndex(index_path);
            if (outcome.accepted) {
                std::printf("mgd: SIGHUP reload published generation "
                            "%llu (%s, %.3f s load)\n",
                            static_cast<unsigned long long>(
                                outcome.generation),
                            index_path.c_str(), outcome.loadSeconds);
            } else {
                std::printf("mgd: SIGHUP reload REJECTED, generation "
                            "%llu still serving: %s\n",
                            static_cast<unsigned long long>(
                                outcome.generation),
                            outcome.reason.c_str());
            }
            std::fflush(stdout);
        }
    }
    std::printf("mgd: stop signal, draining (deadline %.1f s)\n",
                params.drainDeadlineSeconds);
    daemon.requestDrain();
    daemon.stop();

    const mg::serve::DaemonReport& report = daemon.report();
    std::printf("mgd: drained %s — %llu accepted, %llu completed, "
                "%llu shed (%llu at drain, %llu past deadline), "
                "%llu errors, %llu bad frames, %llu watchdog cancels; "
                "index %s load in %.3f s\n",
                report.drainClean ? "clean" : "FORCED",
                static_cast<unsigned long long>(report.accepted),
                static_cast<unsigned long long>(report.completed),
                static_cast<unsigned long long>(report.shed),
                static_cast<unsigned long long>(report.drainShed),
                static_cast<unsigned long long>(report.deadlineShed),
                static_cast<unsigned long long>(report.errors),
                static_cast<unsigned long long>(report.badFrames),
                static_cast<unsigned long long>(report.watchdogCancels),
                report.indexLoadMode.c_str(), report.indexLoadSeconds);
    if (report.reloads > 0 || report.reloadsRejected > 0) {
        std::printf("mgd: %llu reloads (%llu rejected), %llu generations "
                    "retired, final generation %llu\n",
                    static_cast<unsigned long long>(report.reloads),
                    static_cast<unsigned long long>(report.reloadsRejected),
                    static_cast<unsigned long long>(
                        report.generationsRetired),
                    static_cast<unsigned long long>(
                        report.finalGeneration));
    }
    if (report.tracedRequests > 0) {
        std::printf("mgd: %llu traced requests (%llu exemplar dumps)",
                    static_cast<unsigned long long>(report.tracedRequests),
                    static_cast<unsigned long long>(report.traceDumps));
        if (!params.traceOut.empty()) {
            std::printf("; trace at %s", params.traceOut.c_str());
        }
        std::printf("\n");
    }
    if (emitter) {
        // Stamp each stage histogram with the trace id of the slowest
        // request seen at that stage, so the JSON snapshot links a fat
        // tail straight to a .mgtrace / Chrome-trace exemplar.
        const auto stage_exemplars = daemon.tracer().stageExemplars();
        emitter->finalize(
            mg::giraffe::faultExtras(), [&](mg::obs::Snapshot& snap) {
                for (size_t s = 0; s < mg::obs::kSpanStages; ++s) {
                    if (stage_exemplars[s].traceId == 0) {
                        continue;
                    }
                    const std::string name =
                        "mg_serve_stage_ns{" +
                        mg::obs::promLabel(
                            "stage", mg::obs::spanStageName(
                                         static_cast<mg::obs::SpanStage>(
                                             s))) +
                        "}";
                    snap.annotateExemplar(
                        name,
                        mg::obs::traceIdHex(stage_exemplars[s].traceId));
                }
            });
        std::printf("mgd: wrote %s\n", flags.str("metrics-out").c_str());
    }
    mg::obs::installCrashHandler(nullptr);
    return 0;
} catch (const mg::util::Error& e) {
    std::fprintf(stderr, "mgd: %s\n", e.what());
    return 1;
}
