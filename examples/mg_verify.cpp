/**
 * @file
 * mg_verify — integrity checker for this repository's file formats.  For
 * every argument the tool picks a decoder by file extension, runs it, and
 * prints either the decoded summary or the structured error (code, file,
 * section, byte offset) the hardened decode paths report.  MGZ containers
 * additionally get a per-section checksum table from inspectMgz3, so
 * every damaged section of a corrupt file is listed in one pass.
 *
 * Run:  ./examples/mg_verify <file> [<file>...]
 *           [--deep true|false]   also bind MGZ containers (default true)
 *
 * Exit status: 0 when every file verified, 1 otherwise.
 */
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_map>

#include "io/checkpoint.h"
#include "io/extensions_io.h"
#include "io/fastq.h"
#include "io/file.h"
#include "io/gfa.h"
#include "io/mgz.h"
#include "io/reads_bin.h"
#include "mem/arena.h"
#include "obs/json.h"
#include "obs/request_trace.h"
#include "serve/frame.h"
#include "util/flags.h"
#include "util/status.h"

namespace {

bool
endsWith(const std::string& text, const std::string& suffix)
{
    return text.size() >= suffix.size() &&
           text.compare(text.size() - suffix.size(), suffix.size(),
                        suffix) == 0;
}

/**
 * Validate a metrics snapshot series (obs::toJson output): schema marker,
 * strictly increasing snapshot times, and counter/histogram monotonicity
 * — a counter that shrinks between snapshots means a broken exporter or a
 * hand-edited file.  Prints the final snapshot's nonzero values.
 */
bool
verifyMetricsJson(const std::string& path, const mg::obs::json::Value& doc)
{
    const mg::obs::json::Value* snapshots = doc.find("snapshots");
    if (snapshots == nullptr || !snapshots->isArray()) {
        std::fprintf(stderr, "%s: metrics file has no snapshots array\n",
                     path.c_str());
        return false;
    }
    uint64_t prev_at = 0;
    // name -> last seen counter value / histogram count
    std::vector<std::pair<std::string, uint64_t>> watermarks;
    auto watermark = [&](const std::string& name) -> uint64_t& {
        for (auto& [n, v] : watermarks) {
            if (n == name) {
                return v;
            }
        }
        watermarks.emplace_back(name, 0);
        return watermarks.back().second;
    };
    bool ok = true;
    for (size_t s = 0; s < snapshots->items.size(); ++s) {
        const mg::obs::json::Value& snap = snapshots->items[s];
        const mg::obs::json::Value* at = snap.find("at_ns");
        const mg::obs::json::Value* metrics = snap.find("metrics");
        if (at == nullptr || !at->isNumber() || metrics == nullptr ||
            !metrics->isArray()) {
            std::fprintf(stderr, "%s: snapshot %zu malformed\n",
                         path.c_str(), s);
            return false;
        }
        if (s > 0 && at->asUint() <= prev_at) {
            std::fprintf(stderr,
                         "%s: snapshot %zu at_ns not increasing\n",
                         path.c_str(), s);
            ok = false;
        }
        prev_at = at->asUint();
        for (const mg::obs::json::Value& metric : metrics->items) {
            const mg::obs::json::Value* name = metric.find("name");
            const mg::obs::json::Value* kind = metric.find("kind");
            if (name == nullptr || !name->isString() || kind == nullptr ||
                !kind->isString()) {
                std::fprintf(stderr, "%s: snapshot %zu has a metric "
                             "without name/kind\n", path.c_str(), s);
                return false;
            }
            uint64_t current = 0;
            if (kind->text == "counter") {
                const mg::obs::json::Value* value = metric.find("value");
                if (value == nullptr || !value->isNumber()) {
                    std::fprintf(stderr, "%s: counter %s has no value\n",
                                 path.c_str(), name->text.c_str());
                    return false;
                }
                current = value->asUint();
            } else if (kind->text == "histogram") {
                const mg::obs::json::Value* count = metric.find("count");
                if (count == nullptr || !count->isNumber()) {
                    std::fprintf(stderr, "%s: histogram %s has no count\n",
                                 path.c_str(), name->text.c_str());
                    return false;
                }
                current = count->asUint();
            } else {
                continue; // gauges may move in any direction
            }
            uint64_t& seen = watermark(name->text);
            if (current < seen) {
                std::fprintf(stderr,
                             "%s: %s shrank between snapshots "
                             "(%llu -> %llu)\n",
                             path.c_str(), name->text.c_str(),
                             static_cast<unsigned long long>(seen),
                             static_cast<unsigned long long>(current));
                ok = false;
            }
            seen = current;
        }
    }
    std::printf("%s: metrics series, %zu snapshots%s\n", path.c_str(),
                snapshots->items.size(), ok ? "" : " (NOT monotonic)");
    if (!snapshots->items.empty()) {
        const mg::obs::json::Value* metrics =
            snapshots->items.back().find("metrics");
        for (const mg::obs::json::Value& metric : metrics->items) {
            const mg::obs::json::Value* name = metric.find("name");
            const mg::obs::json::Value* kind = metric.find("kind");
            if (kind->text == "histogram") {
                const mg::obs::json::Value* count = metric.find("count");
                if (count->asUint() > 0) {
                    std::printf("  %-44s count=%llu\n",
                                name->text.c_str(),
                                static_cast<unsigned long long>(
                                    count->asUint()));
                }
            } else {
                const mg::obs::json::Value* value = metric.find("value");
                if (value != nullptr && value->asUint() > 0) {
                    std::printf("  %-44s %llu\n", name->text.c_str(),
                                static_cast<unsigned long long>(
                                    value->asUint()));
                }
            }
        }
    }
    return ok;
}

/**
 * Validate a client request capture (`.mgreq`): every frame is CRC-whole
 * and decodes as a Request or a RELOAD Control frame, and ids are
 * strictly increasing across both kinds (the client stamps a fresh id
 * per attempt from one counter).  When the sibling `.mgresp` exists it
 * is cross-checked: every id must be answered — Ok, RETRY_AFTER, Error,
 * ShuttingDown, DEADLINE_SHED, and the reload verdicts all count; a
 * request with *no* response means the daemon leaked it.
 */
bool
verifyRequestCapture(const std::string& path,
                     const std::vector<uint8_t>& bytes)
{
    std::vector<std::vector<uint8_t>> payloads =
        mg::serve::parseFrameStream(bytes, path);
    bool ok = true;
    uint64_t prev_id = 0;
    uint64_t total_reads = 0;
    size_t controls = 0;
    std::vector<uint64_t> ids;
    ids.reserve(payloads.size());
    for (size_t i = 0; i < payloads.size(); ++i) {
        uint64_t id = 0;
        mg::serve::MessageKind kind = mg::serve::MessageKind::Request;
        if (mg::serve::peekKind(payloads[i], kind).ok() &&
            kind == mg::serve::MessageKind::Control) {
            mg::serve::ControlRequest control;
            mg::util::Status status =
                mg::serve::decodeControl(payloads[i], control);
            if (!status.ok()) {
                std::fprintf(stderr, "%s: frame %zu: %s\n", path.c_str(),
                             i, status.toString().c_str());
                return false;
            }
            id = control.id;
            ++controls;
        } else {
            mg::serve::Request request;
            mg::util::Status status =
                mg::serve::decodeRequest(payloads[i], request);
            if (!status.ok()) {
                std::fprintf(stderr, "%s: frame %zu: %s\n", path.c_str(),
                             i, status.toString().c_str());
                return false;
            }
            id = request.id;
            total_reads += request.reads.size();
        }
        if (i > 0 && id <= prev_id) {
            std::fprintf(stderr,
                         "%s: frame %zu: id %llu not monotone (prev "
                         "%llu)\n",
                         path.c_str(), i,
                         static_cast<unsigned long long>(id),
                         static_cast<unsigned long long>(prev_id));
            ok = false;
        }
        prev_id = id;
        ids.push_back(id);
    }
    std::printf("%s: request capture, %zu frames (%zu control), %llu "
                "reads, ids monotone: %s\n",
                path.c_str(), payloads.size(), controls,
                static_cast<unsigned long long>(total_reads),
                ok ? "yes" : "NO");

    const std::string resp_path =
        path.substr(0, path.size() - 6) + ".mgresp";
    std::vector<uint8_t> resp_bytes;
    try {
        resp_bytes = mg::io::readFileBytes(resp_path);
    } catch (const mg::util::Error&) {
        std::printf("  (no %s to cross-check)\n", resp_path.c_str());
        return ok;
    }
    std::unordered_map<uint64_t, mg::serve::ResponseStatus> answered;
    for (const std::vector<uint8_t>& payload :
         mg::serve::parseFrameStream(resp_bytes, resp_path)) {
        mg::serve::Response response;
        mg::util::Status status =
            mg::serve::decodeResponse(payload, response);
        if (!status.ok()) {
            std::fprintf(stderr, "%s: %s\n", resp_path.c_str(),
                         status.toString().c_str());
            return false;
        }
        answered.emplace(response.id, response.status);
    }
    size_t mapped = 0;
    size_t shed = 0;
    size_t errors = 0;
    size_t reloads = 0;
    size_t leaked = 0;
    for (uint64_t id : ids) {
        auto it = answered.find(id);
        if (it == answered.end()) {
            std::fprintf(stderr,
                         "%s: request id %llu has no response — the "
                         "daemon leaked it\n",
                         path.c_str(),
                         static_cast<unsigned long long>(id));
            ++leaked;
            continue;
        }
        switch (it->second) {
          case mg::serve::ResponseStatus::Ok:
            ++mapped;
            break;
          case mg::serve::ResponseStatus::RetryAfter:
          case mg::serve::ResponseStatus::ShuttingDown:
          case mg::serve::ResponseStatus::DeadlineShed:
            ++shed;
            break;
          case mg::serve::ResponseStatus::Error:
            ++errors;
            break;
          case mg::serve::ResponseStatus::ReloadOk:
          case mg::serve::ResponseStatus::ReloadRejected:
          case mg::serve::ResponseStatus::StatsOk:
            ++reloads;
            break;
        }
    }
    std::printf("  cross-check vs %s: %zu mapped, %zu shed, %zu error, "
                "%zu control verdicts, %zu leaked\n",
                resp_path.c_str(), mapped, shed, errors, reloads, leaked);
    return ok && leaked == 0;
}

/** Validate a response capture (`.mgresp`): CRC-whole frames, each
 *  decoding as a Response with a unique id; tallies by status. */
bool
verifyResponseCapture(const std::string& path,
                      const std::vector<uint8_t>& bytes)
{
    std::vector<std::vector<uint8_t>> payloads =
        mg::serve::parseFrameStream(bytes, path);
    bool ok = true;
    std::unordered_map<uint64_t, size_t> seen;
    size_t by_status[8] = { 0, 0, 0, 0, 0, 0, 0, 0 };
    for (size_t i = 0; i < payloads.size(); ++i) {
        mg::serve::Response response;
        mg::util::Status status =
            mg::serve::decodeResponse(payloads[i], response);
        if (!status.ok()) {
            std::fprintf(stderr, "%s: frame %zu: %s\n", path.c_str(), i,
                         status.toString().c_str());
            return false;
        }
        if (++seen[response.id] > 1) {
            std::fprintf(stderr,
                         "%s: frame %zu: duplicate response id %llu\n",
                         path.c_str(), i,
                         static_cast<unsigned long long>(response.id));
            ok = false;
        }
        const size_t raw = static_cast<size_t>(response.status);
        by_status[raw < 8 ? raw : 2]++; // decode already bounds raw
    }
    std::printf("%s: response capture, %zu frames — %zu ok, %zu "
                "retry-after, %zu error, %zu shutting-down, %zu "
                "reload-ok, %zu reload-rejected, %zu deadline-shed, "
                "%zu stats-ok\n",
                path.c_str(), payloads.size(), by_status[0], by_status[1],
                by_status[2], by_status[3], by_status[4], by_status[5],
                by_status[6], by_status[7]);
    return ok;
}

/**
 * Validate a slow-request trace dump (`.mgtrace`, written by mgd's
 * `--trace-dump`): schema marker, a well-formed trace id, spans sorted by
 * begin time with begin <= end and every stage name known, span windows
 * inside the request's [begin_ns, end_ns], and well-formed flight-recorder
 * entries.
 */
bool
verifyTraceDump(const std::string& path, const mg::obs::json::Value& doc)
{
    bool ok = true;
    auto fail = [&](const char* what) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(), what);
        ok = false;
    };
    const mg::obs::json::Value* trace_id = doc.find("trace_id");
    if (trace_id == nullptr || !trace_id->isString() ||
        mg::obs::parseTraceIdHex(trace_id->text) == 0) {
        fail("missing or invalid trace_id");
    }
    const mg::obs::json::Value* begin = doc.find("begin_ns");
    const mg::obs::json::Value* end = doc.find("end_ns");
    if (begin == nullptr || !begin->isNumber() || end == nullptr ||
        !end->isNumber() || begin->asUint() > end->asUint()) {
        fail("missing or inverted begin_ns/end_ns window");
    }
    const mg::obs::json::Value* spans = doc.find("spans");
    size_t span_count = 0;
    if (spans == nullptr || !spans->isArray()) {
        fail("missing spans array");
    } else {
        span_count = spans->items.size();
        uint64_t prev_begin = 0;
        for (size_t i = 0; i < spans->items.size(); ++i) {
            const mg::obs::json::Value& span = spans->items[i];
            const mg::obs::json::Value* stage = span.find("stage");
            const mg::obs::json::Value* sb = span.find("begin_ns");
            const mg::obs::json::Value* se = span.find("end_ns");
            if (stage == nullptr || !stage->isString() || sb == nullptr ||
                !sb->isNumber() || se == nullptr || !se->isNumber()) {
                fail("span missing stage/begin_ns/end_ns");
                break;
            }
            bool known = false;
            for (size_t s = 0; s < mg::obs::kSpanStages; ++s) {
                if (stage->text ==
                    mg::obs::spanStageName(
                        static_cast<mg::obs::SpanStage>(s))) {
                    known = true;
                    break;
                }
            }
            if (!known) {
                std::fprintf(stderr, "%s: span %zu has unknown stage "
                             "'%s'\n", path.c_str(), i,
                             stage->text.c_str());
                ok = false;
            }
            if (sb->asUint() > se->asUint()) {
                fail("span with begin_ns > end_ns");
            }
            if (begin != nullptr && begin->isNumber() && end != nullptr &&
                end->isNumber() &&
                (sb->asUint() < begin->asUint() ||
                 se->asUint() > end->asUint())) {
                fail("span outside the request window");
            }
            if (sb->asUint() < prev_begin) {
                fail("spans not sorted by begin_ns");
            }
            prev_begin = sb->asUint();
        }
    }
    const mg::obs::json::Value* flight = doc.find("flight");
    size_t flight_count = 0;
    if (flight == nullptr || !flight->isArray()) {
        fail("missing flight array");
    } else {
        flight_count = flight->items.size();
        for (const mg::obs::json::Value& entry : flight->items) {
            if (entry.find("read_index") == nullptr ||
                entry.find("stage") == nullptr ||
                entry.find("trace_id") == nullptr) {
                fail("flight entry missing read_index/stage/trace_id");
                break;
            }
        }
    }
    const mg::obs::json::Value* total = doc.find("total_ns");
    const mg::obs::json::Value* disposition = doc.find("disposition");
    std::printf("%s: trace dump %s, %.3f ms (%s), %zu spans, %zu flight "
                "entries%s\n",
                path.c_str(),
                trace_id != nullptr && trace_id->isString()
                    ? trace_id->text.c_str()
                    : "?",
                (total != nullptr && total->isNumber() ? total->number
                                                       : 0.0) /
                    1e6,
                disposition != nullptr && disposition->isString()
                    ? disposition->text.c_str()
                    : "?",
                span_count, flight_count, ok ? "" : " (INVALID)");
    return ok;
}

/** Verify one file; returns true on success. */
bool
verifyFile(const std::string& path, bool deep)
{
    if (endsWith(path, ".mgz3")) {
        // Structural validation (magic/revision, page-aligned canonical
        // section layout, table CRC) throws; the per-section CRC sweep
        // reports every damaged section in one pass, reading the mapped
        // container in place.
        const std::shared_ptr<mg::mem::MappedFile> file =
            mg::mem::MappedFile::open(path);
        mg::io::MgzInfo info =
            mg::io::inspectMgz3(file->data(), file->size(), path);
        std::printf("%s: MGZ container (zero-copy), %llu bytes\n",
                    path.c_str(),
                    static_cast<unsigned long long>(info.fileBytes));
        for (const mg::io::MgzSectionInfo& section : info.sections) {
            std::printf("  section %-14s offset=%-9llu size=%-9llu "
                        "crc=%08x %s\n",
                        section.name,
                        static_cast<unsigned long long>(section.offset),
                        static_cast<unsigned long long>(section.size),
                        section.crcStored,
                        section.crcOk ? "ok" : "MISMATCH");
        }
        if (!info.allChecksumsOk()) {
            return false;
        }
        if (deep) {
            // Full bind: mmap the file, re-verify every section CRC
            // against the *mapped* bytes, and run the structural scans
            // every loadPangenome performs (offset monotonicity, bucket
            // spans, positions inside the graph).
            mg::io::LoadOptions options;
            options.verifySectionCrcs = true;
            mg::io::IndexedPangenome indexed =
                mg::io::loadPangenome(path, options);
            std::printf("  mapped: %zu nodes, %llu haplotypes in the GBWT "
                        "(graph paths not stored), %zu minimizer keys, %s "
                        "load in %.4f s, %llu heap bytes\n",
                        indexed.graph.numNodes(),
                        static_cast<unsigned long long>(
                            indexed.gbwt.numPaths() / 2),
                        indexed.minimizers.numKeys(),
                        mg::io::loadModeName(indexed.info.mode),
                        indexed.info.loadSeconds,
                        static_cast<unsigned long long>(
                            indexed.info.heapBytes));
        }
        return true;
    }
    std::vector<uint8_t> bytes = mg::io::readFileBytes(path);
    if (endsWith(path, ".seeds.bin") || endsWith(path, ".bin")) {
        mg::io::SeedCapture capture =
            mg::io::decodeSeedCapture(bytes, path);
        std::printf("%s: seed capture, %zu reads%s\n", path.c_str(),
                    capture.entries.size(),
                    capture.pairedEnd ? " (paired-end)" : "");
        return true;
    }
    if (endsWith(path, ".ext")) {
        auto all = mg::io::decodeExtensions(bytes, path);
        size_t extensions = 0;
        for (const mg::io::ReadExtensions& entry : all) {
            extensions += entry.extensions.size();
        }
        std::printf("%s: extensions dump, %zu reads, %zu extensions\n",
                    path.c_str(), all.size(), extensions);
        return true;
    }
    if (endsWith(path, ".fastq") || endsWith(path, ".fq")) {
        mg::map::ReadSet reads = mg::io::parseFastq(
            std::string(bytes.begin(), bytes.end()), path);
        std::printf("%s: FASTQ, %zu reads\n", path.c_str(), reads.size());
        return true;
    }
    if (endsWith(path, ".mgc")) {
        // Checkpoint manifest: CRC, structure, and shard-range coverage,
        // then every referenced shard file (CRC + range cross-check).
        mg::io::Manifest manifest;
        mg::util::Status status =
            mg::io::decodeManifest(bytes, path, manifest);
        if (!status.ok()) {
            std::fprintf(stderr, "%s: %s\n", path.c_str(),
                         status.toString().c_str());
            return false;
        }
        size_t slash = path.find_last_of('/');
        std::string dir =
            slash == std::string::npos ? "." : path.substr(0, slash);
        uint64_t covered = 0;
        bool shards_ok = true;
        for (const mg::io::ManifestEntry& entry : manifest.shards) {
            covered += entry.end - entry.begin;
            const std::string shard_path = dir + "/" + entry.file;
            mg::io::Shard shard;
            bool ok = false;
            std::string why;
            try {
                std::vector<uint8_t> shard_bytes =
                    mg::io::readFileBytes(shard_path);
                mg::util::Status shard_status =
                    mg::io::decodeShard(shard_bytes, shard_path, shard);
                if (!shard_status.ok()) {
                    why = shard_status.toString();
                } else if (shard.begin != entry.begin ||
                           shard.end != entry.end) {
                    why = "shard range disagrees with manifest";
                } else {
                    ok = true;
                }
            } catch (const mg::util::Error& e) {
                why = e.what();
            }
            std::printf("  shard [%llu, %llu) %s %s\n",
                        static_cast<unsigned long long>(entry.begin),
                        static_cast<unsigned long long>(entry.end),
                        entry.file.c_str(),
                        ok ? "ok" : why.c_str());
            shards_ok = shards_ok && ok;
        }
        std::printf("%s: checkpoint manifest, %zu shards covering "
                    "%llu / %llu reads%s\n",
                    path.c_str(), manifest.shards.size(),
                    static_cast<unsigned long long>(covered),
                    static_cast<unsigned long long>(manifest.totalReads),
                    covered == manifest.totalReads ? " (complete)"
                                                   : " (partial)");
        return shards_ok;
    }
    if (endsWith(path, ".mgs")) {
        mg::io::Shard shard;
        mg::util::Status status = mg::io::decodeShard(bytes, path, shard);
        if (!status.ok()) {
            std::fprintf(stderr, "%s: %s\n", path.c_str(),
                         status.toString().c_str());
            return false;
        }
        std::printf("%s: checkpoint shard [%llu, %llu), %zu GAF bytes\n",
                    path.c_str(),
                    static_cast<unsigned long long>(shard.begin),
                    static_cast<unsigned long long>(shard.end),
                    shard.gaf.size());
        return true;
    }
    if (endsWith(path, ".json")) {
        // Any repo-emitted JSON parses; metrics snapshot series (the
        // obs::toJson schema) additionally get monotonicity validation.
        mg::obs::json::Value doc = mg::obs::json::parse(
            std::string(bytes.begin(), bytes.end()), path);
        const mg::obs::json::Value* marker =
            doc.find("minigiraffe_metrics");
        if (marker != nullptr) {
            if (!marker->isNumber() || marker->asUint() != 1) {
                std::fprintf(stderr,
                             "%s: unsupported metrics schema version\n",
                             path.c_str());
                return false;
            }
            return verifyMetricsJson(path, doc);
        }
        std::printf("%s: valid JSON (%zu top-level members)\n",
                    path.c_str(), doc.members.size());
        return true;
    }
    if (endsWith(path, ".mgtrace")) {
        mg::obs::json::Value doc = mg::obs::json::parse(
            std::string(bytes.begin(), bytes.end()), path);
        const mg::obs::json::Value* marker = doc.find("minigiraffe_trace");
        if (marker == nullptr || !marker->isNumber() ||
            marker->asUint() != 1) {
            std::fprintf(stderr,
                         "%s: unsupported trace schema version\n",
                         path.c_str());
            return false;
        }
        return verifyTraceDump(path, doc);
    }
    if (endsWith(path, ".mgreq")) {
        return verifyRequestCapture(path, bytes);
    }
    if (endsWith(path, ".mgresp")) {
        return verifyResponseCapture(path, bytes);
    }
    if (endsWith(path, ".gfa")) {
        mg::graph::VariationGraph graph = mg::io::parseGfa(
            std::string(bytes.begin(), bytes.end()), path);
        std::printf("%s: GFA, %zu nodes, %zu paths\n", path.c_str(),
                    graph.numNodes(), graph.paths().size());
        return true;
    }
    std::fprintf(stderr,
                 "%s: unknown extension (expected .mgz3, .bin, "
                 ".ext, .fastq, .gfa, .json, .mgc, .mgs, .mgreq, "
                 ".mgresp, or .mgtrace)\n",
                 path.c_str());
    return false;
}

} // namespace

int
main(int argc, char** argv)
{
    mg::util::Flags flags("mg_verify");
    flags.define("deep", "true", "also bind MGZ containers");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }
    if (flags.positional().empty()) {
        std::fprintf(stderr, "usage: mg_verify <file> [<file>...]\n");
        return 1;
    }

    bool all_ok = true;
    for (const std::string& path : flags.positional()) {
        try {
            if (!verifyFile(path, flags.boolean("deep"))) {
                all_ok = false;
            }
        } catch (const mg::util::StatusError& e) {
            const mg::util::Status& status = e.status();
            std::fprintf(stderr, "%s: %s\n", path.c_str(),
                         status.toString().c_str());
            all_ok = false;
        } catch (const mg::util::Error& e) {
            std::fprintf(stderr, "%s: %s\n", path.c_str(), e.what());
            all_ok = false;
        }
    }
    return all_ok ? 0 : 1;
}
