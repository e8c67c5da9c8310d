#include "io/gfa.h"

#include <algorithm>
#include <map>

#include "fault/fault.h"
#include "io/file.h"
#include "util/common.h"
#include "util/status.h"
#include "util/str.h"

namespace mg::io {

namespace {

char
orientationChar(graph::Handle handle)
{
    return handle.isReverse() ? '-' : '+';
}

/** Throw a Corrupt status pointing at a 1-based GFA line. */
[[noreturn]] void
gfaFail(std::string_view file, uint64_t line, std::string message)
{
    util::Status status;
    status.code = util::StatusCode::Corrupt;
    status.message = std::move(message);
    status.file = std::string(file);
    status.section = "gfa";
    status.offset = line;
    util::throwStatus(std::move(status));
}

/** Parse a decimal segment name; fails instead of throwing std::stoull's
 *  unstructured exceptions. */
uint64_t
parseSegmentName(std::string_view token, std::string_view file,
                 uint64_t line)
{
    if (token.empty()) {
        gfaFail(file, line, "empty GFA segment name");
    }
    uint64_t name = 0;
    for (char c : token) {
        if (c < '0' || c > '9') {
            gfaFail(file, line,
                    util::cat("non-numeric GFA segment name: ", token));
        }
        uint64_t digit = static_cast<uint64_t>(c - '0');
        if (name > (UINT64_MAX - digit) / 10) {
            gfaFail(file, line,
                    util::cat("GFA segment name overflows: ", token));
        }
        name = name * 10 + digit;
    }
    return name;
}

/** Parse "12+" / "12-" path steps. */
graph::Handle
parseStep(std::string_view token,
          const std::map<uint64_t, graph::NodeId>& id_map,
          std::string_view file, uint64_t line)
{
    if (token.size() < 2) {
        gfaFail(file, line, util::cat("bad GFA path step: ", token));
    }
    char orient = token.back();
    if (orient != '+' && orient != '-') {
        gfaFail(file, line,
                util::cat("bad GFA step orientation: ", token));
    }
    uint64_t name =
        parseSegmentName(token.substr(0, token.size() - 1), file, line);
    auto it = id_map.find(name);
    if (it == id_map.end()) {
        gfaFail(file, line,
                util::cat("GFA path references unknown segment: ", token));
    }
    return graph::Handle(it->second, orient == '-');
}

} // namespace

std::string
formatGfa(const graph::VariationGraph& graph)
{
    std::string out = "H\tVN:Z:1.0\n";
    for (graph::NodeId id = 1; id <= graph.numNodes(); ++id) {
        out += "S\t" + std::to_string(id) + "\t";
        out += graph.forwardSequence(id);
        out += '\n';
    }
    // Each bidirected edge once, via its canonical representative.
    for (graph::NodeId id = 1; id <= graph.numNodes(); ++id) {
        for (bool reverse : {false, true}) {
            graph::Handle from(id, reverse);
            for (graph::Handle to : graph.successors(from)) {
                auto key = std::make_pair(from.packed(), to.packed());
                auto twin = std::make_pair(to.flip().packed(),
                                           from.flip().packed());
                if (key > twin) {
                    continue;
                }
                out += "L\t" + std::to_string(from.id()) + "\t";
                out += orientationChar(from);
                out += "\t" + std::to_string(to.id()) + "\t";
                out += orientationChar(to);
                out += "\t0M\n";
            }
        }
    }
    for (const graph::PathEntry& path : graph.paths()) {
        out += "P\t" + path.name + "\t";
        for (size_t i = 0; i < path.steps.size(); ++i) {
            if (i > 0) {
                out += ',';
            }
            out += std::to_string(path.steps[i].id());
            out += orientationChar(path.steps[i]);
        }
        out += "\t*\n";
    }
    return out;
}

graph::VariationGraph
parseGfa(const std::string& text, std::string_view file)
{
    // Fault point: malformed graph text reaching the parser.
    fault::inject("io.gfa.parse");

    // First pass: collect segments so ids can be compacted in numeric
    // order before edges/paths reference them.
    struct Link
    {
        uint64_t fromName;
        bool fromReverse;
        uint64_t toName;
        bool toReverse;
        uint64_t line;
    };
    struct PathLine
    {
        std::string name;
        std::string steps;
        uint64_t line;
    };
    std::map<uint64_t, std::string> segments;
    std::vector<Link> links;
    std::vector<PathLine> path_lines;

    uint64_t line_no = 0;
    for (std::string_view line_view : util::split(text, '\n')) {
        ++line_no;
        std::string line(util::trim(line_view));
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::vector<std::string> fields = util::split(line, '\t');
        switch (line[0]) {
          case 'H':
            break; // header: nothing to validate strictly
          case 'S': {
            if (fields.size() < 3) {
                gfaFail(file, line_no, util::cat("short GFA S line: ", line));
            }
            uint64_t name = parseSegmentName(fields[1], file, line_no);
            if (segments.count(name)) {
                gfaFail(file, line_no,
                        util::cat("duplicate GFA segment: ", fields[1]));
            }
            segments[name] = fields[2];
            break;
          }
          case 'L': {
            if (fields.size() < 6) {
                gfaFail(file, line_no, util::cat("short GFA L line: ", line));
            }
            if (fields[5] != "0M" && fields[5] != "*") {
                gfaFail(file, line_no,
                        util::cat("only 0M/'*' overlaps supported, got: ",
                                  fields[5]));
            }
            if ((fields[2] != "+" && fields[2] != "-") ||
                (fields[4] != "+" && fields[4] != "-")) {
                gfaFail(file, line_no,
                        util::cat("bad L orientation: ", line));
            }
            Link link;
            link.fromName = parseSegmentName(fields[1], file, line_no);
            link.fromReverse = fields[2] == "-";
            link.toName = parseSegmentName(fields[3], file, line_no);
            link.toReverse = fields[4] == "-";
            link.line = line_no;
            links.push_back(link);
            break;
          }
          case 'P': {
            if (fields.size() < 3) {
                gfaFail(file, line_no, util::cat("short GFA P line: ", line));
            }
            path_lines.push_back({ fields[1], fields[2], line_no });
            break;
          }
          default:
            // Unknown record types are ignored (GFA tooling convention).
            break;
        }
    }

    graph::VariationGraph graph;
    std::map<uint64_t, graph::NodeId> id_map;
    for (const auto& [name, sequence] : segments) {
        id_map[name] = graph.addNode(sequence);
    }
    std::vector<std::pair<graph::Handle, graph::Handle>> edges;
    edges.reserve(links.size());
    for (const Link& link : links) {
        auto from = id_map.find(link.fromName);
        auto to = id_map.find(link.toName);
        if (from == id_map.end() || to == id_map.end()) {
            gfaFail(file, link.line,
                    "GFA link references unknown segment");
        }
        edges.emplace_back(graph::Handle(from->second, link.fromReverse),
                           graph::Handle(to->second, link.toReverse));
    }
    graph.addEdges(edges);
    for (const PathLine& path : path_lines) {
        std::vector<graph::Handle> steps;
        for (const std::string& token : util::split(path.steps, ',')) {
            steps.push_back(parseStep(token, id_map, file, path.line));
        }
        graph.addPath(path.name, std::move(steps));
    }
    return graph;
}

void
saveGfa(const std::string& path, const graph::VariationGraph& graph)
{
    writeFileText(path, formatGfa(graph));
}

} // namespace mg::io
