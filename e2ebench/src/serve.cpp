/**
 * @file
 * serve-yeast and serve-human-swap: an in-process serve::Daemon over a
 * Unix socket, driven by a closed loop of serve::Client connections, each
 * sending its next fixed-size request only after the previous reply.
 *
 * Set-up (repeated; setup_s is the median): load the container, start
 * the daemon, one first-query request, then a fixed number of warm-up
 * passes over the whole read set.  The first pass's responses are the
 * reference: they must hold one parseable GAF line per read, in request
 * order, and every later response for the same request must equal them
 * byte for byte.  On the swap workload a swapper connection hot-swaps
 * the index in the middle of every swap period, alternating between two
 * prebuilt containers (the same pangenome in two files), so each
 * reads_per_s slice holds exactly one swap; response generations must
 * never decrease on a connection, no reload may be rejected, and the
 * final generation must equal the published reloads + 1.
 *
 * The traced run adds ClientParams::traceSample = 1 (every response
 * echoes the daemon's queue and map nanoseconds) and the outside-in
 * layer pass, whose GAF must equal the daemon's responses.
 */
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>

#include "drivers.h"
#include "gen.h"
#include "io/mgz.h"
#include "layers.h"
#include "serve/client.h"
#include "serve/daemon.h"

namespace e2e {

namespace {

using Chunks = std::vector<std::vector<mg::map::Read>>;

Chunks
makeChunks(const mg::map::ReadSet& reads, size_t per_request)
{
    Chunks chunks;
    for (size_t i = 0; i < reads.size(); i += per_request) {
        const size_t end = std::min(reads.size(), i + per_request);
        chunks.emplace_back(reads.reads.begin() + static_cast<long>(i),
                            reads.reads.begin() + static_cast<long>(end));
    }
    return chunks;
}

/**
 * One completed request as the client saw it, in seconds since the loop
 * started.  Kept small: every record is resident when rss_mib is read,
 * and their number grows with throughput, so their size would make
 * rss_mib move with speed.
 */
struct Sample
{
    float end = 0.0f;
    float latencyMs = 0.0f;
};

/** The daemon's echo on a traced response: queue and map milliseconds. */
struct Echo
{
    float queueMs = 0.0f;
    float mapMs = 0.0f;
};

/** One reload call as the swapper saw it (seconds since loop start). */
struct Reload
{
    double start = 0.0;
    double end = 0.0;
    bool accepted = false;
};

/** What one connection, or a whole closed-loop phase, observed. */
struct Log
{
    std::vector<Sample> samples;
    std::vector<Echo> echoes;
    /** Reads returned in each whole slice of a timed phase. */
    std::vector<uint64_t> sliceReads;
    std::vector<std::string> problems;
    uint64_t okReads = 0;
    uint64_t requests = 0;
    uint64_t failedRequests = 0;
    /** serve::ClientStats. */
    uint64_t retries = 0;
    uint64_t shed = 0;

    /** Add another log's records, counts and problems to this one. */
    void
    absorb(const Log& other)
    {
        samples.insert(samples.end(), other.samples.begin(),
                       other.samples.end());
        echoes.insert(echoes.end(), other.echoes.begin(), other.echoes.end());
        sliceReads.resize(std::max(sliceReads.size(),
                                   other.sliceReads.size()));
        for (size_t i = 0; i < other.sliceReads.size(); ++i) {
            sliceReads[i] += other.sliceReads[i];
        }
        problems.insert(problems.end(), other.problems.begin(),
                        other.problems.end());
        okReads += other.okReads;
        requests += other.requests;
        failedRequests += other.failedRequests;
        retries += other.retries;
        shed += other.shed;
    }
};

/** A closed-loop phase: its connections' merged log plus the phase's
 *  own observations. */
struct Loop : Log
{
    std::vector<Reload> reloads;
    double wallSeconds = 0.0;
    double sliceSeconds = 1.0;
    /** Peak RSS when the phase ended, read before the connections' logs
     *  were merged (so the merged copy is not in it). */
    double peakRssMiB = 0.0;

    /**
     * Throughput as the median over whole slices of the phase (reads
     * whose response arrived in the slice, per second), so a host stall
     * that covers a few slices moves it less than total / wall would.
     * With hot swaps a slice is one swap period and holds one swap, so
     * the cost of a swap is in every slice.
     */
    double
    readsPerSecond() const
    {
        if (sliceReads.empty()) {
            return static_cast<double>(okReads) / wallSeconds;
        }
        std::vector<double> per_second;
        for (uint64_t reads : sliceReads) {
            per_second.push_back(static_cast<double>(reads) / sliceSeconds);
        }
        return median(per_second);
    }
};

struct LoopConfig
{
    std::string socket;
    size_t clients = 1;
    /** 0: one pass over the chunks; else seconds. */
    double seconds = 0.0;
    double traceSample = 0.0;
    double swapEverySeconds = 0.0;
    std::vector<std::string> swapPaths;
    /** Next swap target index into swapPaths (alternates across loops). */
    size_t* nextSwap = nullptr;
};

/**
 * Run a closed loop.  In one-pass mode every chunk is sent exactly once,
 * in timed mode chunks cycle.  A one-pass loop over an empty `reference`
 * fills it with each chunk's GAF; every other loop checks each response
 * against `reference` for its chunk.
 */
Loop
closedLoop(const LoopConfig& config, const Chunks& chunks,
           std::vector<std::string>& reference)
{
    const bool one_pass = config.seconds <= 0.0;
    const bool fill = one_pass && reference.empty();
    if (fill) {
        reference.assign(chunks.size(), std::string());
    }
    Loop loop;
    if (config.swapEverySeconds > 0.0) {
        loop.sliceSeconds = config.swapEverySeconds;
    }
    const auto slices =
        static_cast<size_t>(config.seconds / loop.sliceSeconds);
    std::vector<Log> logs(config.clients);
    std::mutex merge;
    std::atomic<size_t> next{0};
    std::atomic<bool> done{false};
    const double start = nowSeconds();
    const double deadline = start + config.seconds;

    auto client_main = [&](size_t c) {
        mg::serve::ClientParams params;
        params.socketPath = config.socket;
        params.seed = 1000 + c;
        params.traceSample = config.traceSample;
        mg::serve::Client client(params);
        Log& log = logs[c];
        // Virtual room for any plausible rate, so the vector never
        // reallocates; only the records written are resident.
        log.samples.reserve(one_pass ? chunks.size()
                                     : static_cast<size_t>(
                                           config.seconds * 20000.0));
        log.sliceReads.assign(slices, 0);
        uint64_t last_generation = 0;
        while (true) {
            if (!one_pass && nowSeconds() >= deadline) {
                break;
            }
            const size_t ticket = next.fetch_add(1);
            if (one_pass && ticket >= chunks.size()) {
                break;
            }
            const size_t chunk = ticket % chunks.size();
            mg::serve::Response response;
            const double sent = nowSeconds();
            const mg::util::Status status = client.mapReads(
                "default", chunks[chunk], mg::resilience::WorkBudget{},
                response);
            const double received = nowSeconds();
            ++log.requests;
            if (!status.ok() ||
                response.status != mg::serve::ResponseStatus::Ok) {
                ++log.failedRequests;
                log.problems.push_back(
                    "request failed: " +
                    (status.ok() ? std::string(mg::serve::responseStatusName(
                                       response.status)) +
                                       " " + response.message
                                 : status.toString()));
                continue;
            }
            if (response.generation < last_generation) {
                log.problems.push_back("response generation decreased on "
                                       "a connection");
            }
            last_generation = response.generation;
            if (fill) {
                reference[chunk] = response.gaf;
            } else if (response.gaf != reference[chunk]) {
                log.problems.push_back("response GAF differs from the "
                                       "reference pass for the same reads");
            }
            log.okReads += chunks[chunk].size();
            const auto slice =
                static_cast<size_t>((received - start) / loop.sliceSeconds);
            if (slice < slices) {
                log.sliceReads[slice] += chunks[chunk].size();
            }
            log.samples.push_back(
                Sample{ static_cast<float>(received - start),
                        static_cast<float>((received - sent) * 1e3) });
            if (config.traceSample > 0.0) {
                if (response.traceId == 0) {
                    log.problems.push_back("traced request came back "
                                           "without its echo");
                }
                log.echoes.push_back(
                    Echo{ static_cast<float>(response.queueNanos / 1e6),
                          static_cast<float>(response.mapNanos / 1e6) });
            }
        }
        log.retries = client.stats().retries;
        log.shed = client.stats().shed + client.stats().deadlineShed;
    };

    std::vector<std::thread> threads;
    for (size_t c = 0; c < config.clients; ++c) {
        threads.emplace_back(client_main, c);
    }
    std::thread swapper;
    if (!one_pass && config.swapEverySeconds > 0.0) {
        swapper = std::thread([&] {
            mg::serve::ClientParams params;
            params.socketPath = config.socket;
            mg::serve::Client client(params);
            double next_swap = start + config.swapEverySeconds / 2.0;
            // Only swaps that finish inside the phase: a fixed count per
            // run keeps runs comparable.
            while (next_swap + 0.5 < deadline && !done.load()) {
                if (nowSeconds() < next_swap) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(5));
                    continue;
                }
                next_swap += config.swapEverySeconds;
                const std::string& path =
                    config.swapPaths[*config.nextSwap % 2];
                ++*config.nextSwap;
                Reload reload;
                reload.start = nowSeconds() - start;
                mg::serve::Response response;
                const mg::util::Status status = client.reload(path, response);
                reload.end = nowSeconds() - start;
                reload.accepted =
                    status.ok() &&
                    response.status == mg::serve::ResponseStatus::ReloadOk;
                std::lock_guard<std::mutex> lock(merge);
                if (!reload.accepted) {
                    loop.problems.push_back(
                        "reload rejected: " +
                        (status.ok() ? response.message : status.toString()));
                }
                loop.reloads.push_back(reload);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    done.store(true);
    if (swapper.joinable()) {
        swapper.join();
    }
    loop.wallSeconds = nowSeconds() - start;
    loop.peakRssMiB = peakRssMiB();
    for (const Log& log : logs) {
        loop.absorb(log);
    }
    return loop;
}

/** A running daemon plus its warm-up reference. */
struct ServeSetup
{
    std::unique_ptr<mg::serve::Daemon> daemon;
    std::vector<std::string> reference;
    double seconds = 0.0;
    double loadMs = 0.0;
    double firstQueryMs = 0.0;
    Log warmup;
};

ServeSetup
setUp(const std::string& container, const std::string& socket,
      const Workload& workload, const Chunks& chunks)
{
    ServeSetup setup;
    const double start = nowSeconds();
    mg::io::IndexedPangenome index = mg::io::loadPangenome(container);
    setup.loadMs = (nowSeconds() - start) * 1e3;
    mg::serve::DaemonParams params;
    params.socketPath = socket;
    params.workers = workload.threads;
    params.indexLoadMode = mg::io::loadModeName(index.info.mode);
    params.indexLoadSeconds = index.info.loadSeconds;
    setup.daemon = std::make_unique<mg::serve::Daemon>(
        std::move(index), container, params);
    setup.daemon->start();
    bool first_ok = false;
    {
        mg::serve::ClientParams cparams;
        cparams.socketPath = socket;
        mg::serve::Client client(cparams);
        mg::serve::Response response;
        const double q = nowSeconds();
        const mg::util::Status status = client.mapReads(
            "default", chunks.front(), mg::resilience::WorkBudget{},
            response);
        setup.firstQueryMs = (nowSeconds() - q) * 1e3;
        first_ok = status.ok() &&
                   response.status == mg::serve::ResponseStatus::Ok;
    }
    LoopConfig config;
    config.socket = socket;
    config.clients = workload.clients;
    for (size_t pass = 0; pass < workload.warmupPasses; ++pass) {
        setup.warmup.absorb(closedLoop(config, chunks, setup.reference));
    }
    setup.seconds = nowSeconds() - start;
    if (!first_ok) {
        setup.warmup.problems.push_back("first query failed");
    }
    return setup;
}

std::vector<double>
latenciesMs(const Loop& loop)
{
    std::vector<double> ms;
    ms.reserve(loop.samples.size());
    for (const Sample& s : loop.samples) {
        ms.push_back(s.latencyMs);
    }
    return ms;
}

} // namespace

RunResult
runServe(const Workload& workload, const RunOptions& options)
{
    RunResult result;
    const TruthReads input =
        loadTruthReads(readsPath(options.dir, workload, options.seed));
    const Chunks chunks = makeChunks(input.reads, workload.readsPerRequest);
    const std::string container = containerPath(options.dir, workload, 0);
    const std::string socket =
        options.dir + "/mgd-" + std::to_string(::getpid()) + ".sock";
    std::vector<std::string> swap_paths;
    if (workload.swapEverySeconds > 0.0) {
        swap_paths = { containerPath(options.dir, workload, 1), container };
    }

    auto account = [&](const Log& log) {
        result.attempted += log.requests;
        result.failed += log.failedRequests;
        for (const std::string& problem : log.problems) {
            result.check(false, problem);
        }
    };

    ServeSetup setup;
    std::vector<double> setup_s, load_ms, first_ms;
    for (size_t s = 0; s < kSetups; ++s) {
        if (setup.daemon) {
            setup.daemon->stop();
        }
        setup = ServeSetup{};
        setup = setUp(container, socket, workload, chunks);
        setup_s.push_back(setup.seconds);
        load_ms.push_back(setup.loadMs);
        first_ms.push_back(setup.firstQueryMs);
        account(setup.warmup);
    }
    std::string reference_gaf;
    for (const std::string& gaf : setup.reference) {
        reference_gaf += gaf;
    }
    publishFile(gafPath(options.dir, workload, options.seed), reference_gaf);
    const Accuracy accuracy = scoreGaf(splitLines(reference_gaf), input);
    result.check(accuracy.wellFormed, accuracy.problem);

    LoopConfig config;
    config.socket = socket;
    config.clients = workload.clients;
    config.swapEverySeconds = workload.swapEverySeconds;
    config.swapPaths = swap_paths;
    size_t next_swap = 0;
    config.nextSwap = &next_swap;
    uint64_t reloads_ok = 0;
    auto count_reloads = [&](const Loop& loop) {
        for (const Reload& r : loop.reloads) {
            reloads_ok += r.accepted ? 1 : 0;
        }
    };

    result.provenance.integer("daemon_workers", workload.threads)
        .integer("client_connections", workload.clients)
        .integer("reads_per_request", workload.readsPerRequest)
        .integer("reads_per_pass", input.reads.size())
        .integer("warmup_reads",
                 input.reads.size() * workload.warmupPasses)
        .integer("setups", kSetups)
        .num("swap_every_s", workload.swapEverySeconds);

    auto finish = [&]() {
        setup.daemon->stop();
        const mg::serve::DaemonReport& report = setup.daemon->report();
        result.check(report.reloadsRejected == 0,
                     "the daemon rejected a reload");
        result.check(report.finalGeneration == reloads_ok + 1,
                     "final generation " +
                         std::to_string(report.finalGeneration) +
                         " != published reloads + 1 = " +
                         std::to_string(reloads_ok + 1));
        result.provenance.integer("final_generation", report.finalGeneration)
            .integer("reloads", reloads_ok);
    };

    if (!options.trace) {
        config.seconds = options.seconds;
        const double cpu_start = cpuSeconds();
        const Loop loop = closedLoop(config, chunks, setup.reference);
        result.provenance.num("timed_cpu_s", cpuSeconds() - cpu_start);
        account(loop);
        count_reloads(loop);
        finish();
        const std::vector<double> ms = latenciesMs(loop);
        const double tail = tailQuantile(ms.size());
        result.set("reads_per_s", loop.readsPerSecond());
        result.set("p50_ms", median(ms));
        result.set("setup_s", median(setup_s));
        result.set("rss_mib", loop.peakRssMiB);
        result.set("correct_frac",
                   static_cast<double>(accuracy.correct) /
                       static_cast<double>(input.reads.size()));
        result.check(accuracy.correct * 2 > input.reads.size(),
                     "fewer than half the reads placed correctly");
        result.provenance
            .num("reads_per_s_total",
                 static_cast<double>(loop.okReads) / loop.wallSeconds)
            .integer("reads_per_s_slices", loop.sliceReads.size())
            .num("reads_per_s_slice_s", loop.sliceSeconds)
            .integer("p50_samples", ms.size())
            .num("tail_quantile", tail)
            .num("tail_ms", quantile(ms, tail))
            .integer("tail_samples_beyond",
                     static_cast<uint64_t>(static_cast<double>(ms.size()) *
                                           (1.0 - tail)));
        return result;
    }

    // Traced run: untraced loop, then the same loop with every request
    // traced, then the outside-in layer pass over the same reads.
    const double share = options.seconds / 3.0;
    config.seconds = share;
    const Loop plain = closedLoop(config, chunks, setup.reference);
    account(plain);
    count_reloads(plain);
    config.traceSample = 1.0;
    const Loop traced = closedLoop(config, chunks, setup.reference);
    account(traced);
    count_reloads(traced);
    finish();

    // Every traced response carries an echo, so echoes and samples are
    // index-aligned.
    std::vector<double> queue_ms, map_ms, wire_ms;
    result.check(traced.echoes.size() == traced.samples.size(),
                 "traced responses and echoes differ in number");
    for (size_t i = 0; i < traced.echoes.size(); ++i) {
        const Echo& echo = traced.echoes[i];
        queue_ms.push_back(echo.queueMs);
        map_ms.push_back(echo.mapMs);
        wire_ms.push_back(static_cast<double>(traced.samples[i].latencyMs) -
                          echo.queueMs - echo.mapMs);
    }
    result.set("serve.queue_ms_p50", median(queue_ms));
    result.set("serve.map_ms_p50", median(map_ms));
    result.set("serve.wire_ms_p50", median(wire_ms));
    const double requests = static_cast<double>(plain.requests +
                                                traced.requests);
    result.set("serve.retries_per_req",
               static_cast<double>(plain.retries + traced.retries) / requests);
    result.set("serve.shed_frac",
               static_cast<double>(plain.shed + traced.shed) / requests);
    const std::vector<double> plain_ms = latenciesMs(plain);
    const double tail = tailQuantile(plain_ms.size());
    result.set("serve.client_p99_ms", quantile(plain_ms, tail));
    result.set("serve.client_p99_count", static_cast<double>(plain_ms.size()));

    std::vector<double> reload_ms, window_ms;
    uint64_t rejected = 0;
    for (const Loop* loop : { &plain, &traced }) {
        for (const Reload& r : loop->reloads) {
            reload_ms.push_back((r.end - r.start) * 1e3);
            rejected += r.accepted ? 0 : 1;
        }
        for (const Sample& s : loop->samples) {
            const double end = s.end;
            const double begin = end - s.latencyMs / 1e3;
            for (const Reload& r : loop->reloads) {
                if (begin < r.end && end > r.start) {
                    window_ms.push_back(s.latencyMs);
                    break;
                }
            }
        }
    }
    result.set("serve.reload_ms", median(reload_ms));
    result.set("serve.reloads", static_cast<double>(reload_ms.size()));
    result.set("serve.reloads_rejected", static_cast<double>(rejected));
    result.set("serve.swap_window_p50_ms", median(window_ms));

    result.set("trace.overhead_frac",
               1.0 - traced.readsPerSecond() / plain.readsPerSecond());

    // Outside-in layer pass on a second mapping of the same container.
    mg::io::IndexedPangenome index = mg::io::loadPangenome(container);
    PipelineParams params;
    params.mapper = setup.daemon->params().session.mapper;
    params.post = setup.daemon->params().session.post;
    std::vector<LayerPass> passes;
    const double pass_start = nowSeconds();
    do {
        passes.push_back(tracedPass(index, params, input.reads));
        result.attempted += input.reads.size();
        result.check(passes.back().gaf == reference_gaf,
                     "traced pass GAF differs from the daemon's responses");
    } while (nowSeconds() - pass_start < share);
    layerMetrics(passes, result);
    publishFile(spansPath(options.dir, workload, options.seed),
                chromeTrace(passes.back().spans));

    result.set("io.load_ms", median(load_ms));
    result.set("io.first_query_ms", median(first_ms));
    // The mapping shares the daemon's page-cache copy, so its residency
    // is the served index's.
    index.refreshResidency();
    result.set("io.resident_mib",
               static_cast<double>(index.info.residentBytes +
                                   index.info.heapBytes) /
                   (1024.0 * 1024.0));
    result.provenance.integer("traced_requests", traced.samples.size())
        .integer("untraced_requests", plain.samples.size())
        .integer("traced_passes", passes.size());
    return result;
}

} // namespace e2e
