/**
 * @file
 * mg_top — live daemon introspection.  Polls a running mgd over its
 * control plane (STATS frames on the same Unix socket the mapping
 * traffic uses) and renders the snapshot like `top`: daemon state and
 * generation, queue depth, per-tenant load and EWMA service time,
 * worker heartbeat ages, per-stage latency with trace-id exemplars,
 * and the slowest requests currently in flight.
 *
 * Run:  ./examples/mg_top --socket /tmp/mgd.sock
 *       ./examples/mg_top --socket /tmp/mgd.sock --count 1 --raw
 *
 * `--raw` prints the snapshot JSON verbatim (scripting); otherwise the
 * JSON is parsed and rendered.  `--count N` stops after N snapshots
 * (0 = until interrupted), `--interval S` is the poll period.
 */
#include <unistd.h>

#include <cstdio>
#include <string>

#include "obs/json.h"
#include "serve/client.h"
#include "util/flags.h"

namespace {

using mg::obs::json::Value;

double
num(const Value& object, const char* name)
{
    const Value* v = object.find(name);
    return v != nullptr && v->isNumber() ? v->number : 0.0;
}

uint64_t
uns(const Value& object, const char* name)
{
    const Value* v = object.find(name);
    return v != nullptr && v->isNumber() ? v->asUint() : 0;
}

std::string
text(const Value& object, const char* name)
{
    const Value* v = object.find(name);
    return v != nullptr && v->isString() ? v->text : std::string();
}

double
millis(double nanos)
{
    return nanos / 1e6;
}

void
render(const Value& snap)
{
    std::printf("mgd %s  generation %llu  reloads %llu (%llu rejected, "
                "%llu retired)\n",
                text(snap, "state").c_str(),
                static_cast<unsigned long long>(uns(snap, "generation")),
                static_cast<unsigned long long>(uns(snap, "reloads")),
                static_cast<unsigned long long>(
                    uns(snap, "reloads_rejected")),
                static_cast<unsigned long long>(
                    uns(snap, "generations_retired")));

    if (const Value* queue = snap.find("queue");
        queue != nullptr && queue->isObject()) {
        std::printf("queue %llu/%llu (peak %llu), %llu in flight\n",
                    static_cast<unsigned long long>(uns(*queue, "depth")),
                    static_cast<unsigned long long>(
                        uns(*queue, "capacity")),
                    static_cast<unsigned long long>(
                        uns(*queue, "peak_depth")),
                    static_cast<unsigned long long>(
                        uns(*queue, "in_flight")));
    }

    if (const Value* tenants = snap.find("tenants");
        tenants != nullptr && tenants->isArray() &&
        !tenants->items.empty()) {
        std::printf("\n%-12s %6s %6s %9s %9s %6s %6s %6s %9s\n", "TENANT",
                    "QUEUED", "INFLT", "ACCEPTED", "COMPLETE", "SHED",
                    "DLSHED", "ERRS", "EWMA-MS");
        for (const Value& tenant : tenants->items) {
            std::printf("%-12s %6llu %6llu %9llu %9llu %6llu %6llu %6llu "
                        "%9.2f\n",
                        text(tenant, "name").c_str(),
                        static_cast<unsigned long long>(
                            uns(tenant, "queued")),
                        static_cast<unsigned long long>(
                            uns(tenant, "in_flight")),
                        static_cast<unsigned long long>(
                            uns(tenant, "accepted")),
                        static_cast<unsigned long long>(
                            uns(tenant, "completed")),
                        static_cast<unsigned long long>(
                            uns(tenant, "shed")),
                        static_cast<unsigned long long>(
                            uns(tenant, "deadline_shed")),
                        static_cast<unsigned long long>(
                            uns(tenant, "errors")),
                        millis(num(tenant, "ewma_service_ns")));
        }
    }

    if (const Value* workers = snap.find("workers");
        workers != nullptr && workers->isArray() &&
        !workers->items.empty()) {
        std::printf("\nworkers:");
        for (const Value& worker : workers->items) {
            const Value* busy = worker.find("busy");
            const bool is_busy =
                busy != nullptr && busy->isBool() && busy->boolean;
            std::printf("  #%llu %s",
                        static_cast<unsigned long long>(
                            uns(worker, "worker")),
                        is_busy ? "busy" : "idle");
            if (is_busy) {
                std::printf(" %.0fms", millis(num(worker,
                                                  "heartbeat_age_ns")));
            }
        }
        std::printf("\n");
    }

    if (const Value* stages = snap.find("stages");
        stages != nullptr && stages->isArray() && !stages->items.empty()) {
        std::printf("\n%-16s %9s %9s %9s %9s  %s\n", "STAGE", "COUNT",
                    "MEAN-MS", "P50-MS", "P99-MS", "SLOWEST-TRACE");
        for (const Value& stage : stages->items) {
            const uint64_t count = uns(stage, "count");
            if (count == 0) {
                continue;
            }
            std::string exemplar = text(stage, "exemplar");
            std::printf("%-16s %9llu %9.3f %9.3f %9.3f  %s\n",
                        text(stage, "stage").c_str(),
                        static_cast<unsigned long long>(count),
                        millis(num(stage, "mean_ns")),
                        millis(num(stage, "p50_ns")),
                        millis(num(stage, "p99_ns")),
                        exemplar.empty() ? "-" : exemplar.c_str());
        }
    }

    if (const Value* slow = snap.find("slowest_in_flight");
        slow != nullptr && slow->isArray() && !slow->items.empty()) {
        std::printf("\nslowest in flight:\n");
        for (const Value& entry : slow->items) {
            std::printf("  worker %llu  %s  %.1f ms\n",
                        static_cast<unsigned long long>(
                            uns(entry, "worker")),
                        text(entry, "trace").c_str(),
                        millis(num(entry, "age_ns")));
        }
    }

    if (const Value* trace = snap.find("trace");
        trace != nullptr && trace->isObject()) {
        std::printf("\ntracing: sample %.3f, %llu committed, %llu "
                    "dropped spans\n",
                    num(*trace, "sample_rate"),
                    static_cast<unsigned long long>(
                        uns(*trace, "committed")),
                    static_cast<unsigned long long>(
                        uns(*trace, "dropped_spans")));
    }
}

} // namespace

int
main(int argc, char** argv)
try {
    mg::util::Flags flags("mg_top");
    flags.define("socket", "", "mgd Unix-domain socket path")
         .define("interval", "2.0", "seconds between snapshots")
         .define("count", "0",
                 "stop after N snapshots (0 = until interrupted)")
         .define("raw", "false",
                 "print the snapshot JSON verbatim instead of rendering")
         .define("clear", "true",
                 "clear the terminal between rendered snapshots");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }
    if (flags.str("socket").empty()) {
        std::fprintf(stderr,
                     "usage: mg_top --socket <path> [--interval s] "
                     "[--count n] [--raw]\n");
        return 1;
    }
    mg::serve::ClientParams cparams;
    cparams.socketPath = flags.str("socket");
    mg::serve::Client client(cparams);

    const uint64_t count = static_cast<uint64_t>(flags.integer("count"));
    const double interval = flags.real("interval");
    const bool raw = flags.boolean("raw");
    const bool clear = flags.boolean("clear") && count != 1 && !raw;

    for (uint64_t taken = 0; count == 0 || taken < count; ++taken) {
        if (taken > 0) {
            ::usleep(static_cast<useconds_t>(interval * 1e6));
        }
        mg::serve::Response response;
        mg::util::Status status = client.queryStats(response);
        if (!status.ok()) {
            std::fprintf(stderr, "mg_top: %s\n", status.message.c_str());
            return 1;
        }
        if (response.status != mg::serve::ResponseStatus::StatsOk) {
            std::fprintf(stderr, "mg_top: unexpected response %s: %s\n",
                         mg::serve::responseStatusName(response.status),
                         response.message.c_str());
            return 1;
        }
        if (raw) {
            std::printf("%s\n", response.message.c_str());
        } else {
            if (clear) {
                std::printf("\033[2J\033[H");
            }
            render(mg::obs::json::parse(response.message, "mgd stats"));
        }
        std::fflush(stdout);
    }
    return 0;
} catch (const mg::util::Error& e) {
    std::fprintf(stderr, "mg_top: %s\n", e.what());
    return 1;
}
