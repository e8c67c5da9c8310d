/**
 * @file
 * mgd — mapping as a service.  Loads (or generates) a pangenome once,
 * builds its indexes, and serves mapping requests over a Unix-domain
 * socket with admission control, per-tenant QoS, explicit backpressure
 * (RETRY_AFTER), per-request deadlines, and graceful drain on
 * SIGTERM/SIGINT (finish or degrade in-flight work, flush metrics,
 * exit 0).
 *
 * Run:  ./examples/mgd <graph.mgz3> --socket /tmp/mgd.sock
 *       ./examples/mgd --gen B-yeast --socket /tmp/mgd.sock [flags]
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
#include <optional>

#include "fault/fault.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/mgz.h"
#include "obs/emitter.h"
#include "obs/flight_recorder.h"
#include "obs/request_trace.h"
#include "serve/daemon.h"
#include "serve/stop.h"
#include "sim/input_sets.h"
#include "util/flags.h"
#include "util/timer.h"

namespace {

/** Per-site fault counters for the final metrics snapshot. */
std::vector<mg::obs::MetricValue>
faultExtras()
{
    std::vector<mg::obs::MetricValue> extras;
    for (const auto& [site, stats] : mg::fault::allStats()) {
        mg::obs::MetricValue hits;
        hits.name = "mg_fault_hits_total{site=\"" + site + "\"}";
        hits.help = "Times the fault site was evaluated.";
        hits.value = stats.hits;
        extras.push_back(std::move(hits));
        mg::obs::MetricValue fires;
        fires.name = "mg_fault_fires_total{site=\"" + site + "\"}";
        fires.help = "Times the fault site injected its fault.";
        fires.value = stats.fires;
        extras.push_back(std::move(fires));
    }
    return extras;
}

} // namespace

int
main(int argc, char** argv)
try {
    mg::util::Flags flags("mgd");
    flags.define("socket", "", "Unix-domain socket path to serve on")
         .define("gen", "",
                 "serve a generated pangenome (input-set name, e.g. "
                 "B-yeast) instead of loading an .mgz3")
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
    const bool generated = !flags.str("gen").empty();
    if (flags.str("socket").empty() ||
        flags.positional().size() != (generated ? 0u : 1u)) {
        std::fprintf(stderr,
                     "usage: mgd (<graph.mgz3> | --gen <input-set>) "
                     "--socket <path> [flags]\n");
        return 1;
    }
    if (!flags.str("fault").empty()) {
        mg::fault::armFromText(flags.str("fault"));
    }
    mg::serve::installStopHandlers();
    mg::serve::installReloadHandler();

    // The pangenome: mapped from a container, or generated from the
    // named input-set spec with its indexes built in memory
    // (self-contained demos and tests).
    mg::util::WallTimer timer;
    std::optional<mg::io::IndexedPangenome> loaded;
    std::optional<mg::sim::GeneratedPangenome> synthetic;
    std::optional<mg::index::MinimizerIndex> gen_minimizers;
    std::optional<mg::index::DistanceIndex> gen_distance;
    if (generated) {
        synthetic = mg::sim::generatePangenome(
            mg::sim::inputSetSpec(flags.str("gen")).pangenome);
        gen_minimizers.emplace(synthetic->graph,
                               mg::index::MinimizerParams());
        gen_distance.emplace(synthetic->graph);
    } else {
        loaded = mg::io::loadPangenome(flags.positional()[0]);
    }
    const size_t num_nodes =
        generated ? synthetic->graph.numNodes() : loaded->graph.numNodes();
    const size_t num_keys = generated ? gen_minimizers->numKeys()
                                      : loaded->minimizers.numKeys();
    const std::string load_mode =
        generated ? "generated"
                  : mg::io::loadModeName(loaded->info.mode);
    const double load_seconds =
        generated ? timer.seconds() : loaded->info.loadSeconds;
    std::printf("mgd: %zu nodes ready in %.2f s (%s load: %.3f s, "
                "%zu minimizer keys)\n",
                num_nodes, timer.seconds(), load_mode.c_str(),
                load_seconds, num_keys);

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
    params.indexLoadMode = load_mode;
    params.indexLoadSeconds = load_seconds;
    params.traceSample = flags.real("trace-sample");
    params.traceOut = flags.str("trace-out");
    params.traceExemplars =
        static_cast<size_t>(flags.integer("trace-exemplars"));
    params.traceDumpPrefix = flags.str("trace-dump");
    params.flightRingSize =
        static_cast<size_t>(flags.integer("flight-ring"));

    // File-backed pangenomes move into the daemon (the IndexManager must
    // own the mapping so a hot swap can retire and unmap it); generated
    // ones stay borrowed — there is no file to reload anyway.
    const std::string index_path =
        generated ? std::string() : flags.positional()[0];
    std::optional<mg::serve::Daemon> daemon;
    if (generated) {
        daemon.emplace(synthetic->graph, synthetic->gbwt, *gen_minimizers,
                       *gen_distance, params);
    } else {
        daemon.emplace(std::move(*loaded), index_path, params);
        loaded.reset();
    }
    daemon->start();
    // Fatal signals dump every worker's flight ring (read index, stage,
    // trace id) with async-signal-safe calls before re-raising.
    mg::obs::installCrashHandler(&daemon->hub().flight());
    std::unique_ptr<mg::obs::MetricsEmitter> emitter;
    if (!flags.str("metrics-out").empty()) {
        emitter = std::make_unique<mg::obs::MetricsEmitter>(
            daemon->hub().registry(), flags.str("metrics-out"),
            flags.real("metrics-interval"));
        emitter->start();
    }
    std::printf("mgd: serving on %s (%zu workers, queue %zu",
                params.socketPath.c_str(), params.workers,
                params.queueCapacity);
    for (const mg::serve::TenantConfig& tenant : daemon->params().tenants) {
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
            if (index_path.empty()) {
                std::printf("mgd: SIGHUP ignored — serving a generated "
                            "pangenome, nothing to reload\n");
            } else {
                mg::serve::SwapOutcome outcome =
                    daemon->reloadIndex(index_path);
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
            }
            std::fflush(stdout);
        }
    }
    std::printf("mgd: stop signal, draining (deadline %.1f s)\n",
                params.drainDeadlineSeconds);
    daemon->requestDrain();
    daemon->stop();

    const mg::serve::DaemonReport& report = daemon->report();
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
        const auto stage_exemplars = daemon->tracer().stageExemplars();
        emitter->finalize(
            faultExtras(), [&](mg::obs::Snapshot& snap) {
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
