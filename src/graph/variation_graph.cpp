#include "graph/variation_graph.h"

#include <algorithm>

#include "util/common.h"
#include "util/status.h"

namespace mg::graph {

namespace {

/** Handles pack to 2*id(+1) and ids start at 1: slot = packed - 2. */
size_t
slotOf(Handle handle)
{
    return handle.packed() - 2;
}

} // namespace

VariationGraph::VariationGraph()
{
    edgeOffsets_.owned().push_back(0);
}

NodeId
VariationGraph::addNode(std::string sequence)
{
    MG_CHECK(!sequence.empty(), "node sequences must be non-empty");
    // Canonicalization (ambiguity letters -> 'A', counted) and rejection
    // of non-letter characters happen inside the packed store.
    totalSequence_ += sequence.size();
    store_.addNode(sequence);
    // Both strands of the new node start with no successors.
    std::vector<uint32_t>& offsets = edgeOffsets_.owned();
    offsets.insert(offsets.end(), 2, offsets.back());
    return static_cast<NodeId>(store_.numNodes());
}

void
VariationGraph::addEdges(std::span<const std::pair<Handle, Handle>> edges)
{
    // One directed entry per edge and one per reverse-strand twin,
    // flip(to) -> flip(from), grouped by source slot in insertion order.
    // For a self-loop on a palindromic orientation the twin is the edge.
    std::vector<std::pair<size_t, PackedHandle>> added;
    added.reserve(2 * edges.size());
    for (const auto& [from, to] : edges) {
        // Message formatting is eager in MG_CHECK; builders add every
        // edge here, so only pay for str() when the check fails.
        if (!(hasNode(from.id()) && hasNode(to.id()))) {
            MG_CHECK(false, "edge references unknown node: ", from.str(),
                     " -> ", to.str());
        }
        added.emplace_back(slotOf(from),
                           PackedHandle{util::fitU32(to.packed(), "edges")});
        if (!(to.flip() == from && from.flip() == to)) {
            added.emplace_back(
                slotOf(to.flip()),
                PackedHandle{util::fitU32(from.flip().packed(), "edges")});
        }
    }
    std::stable_sort(added.begin(), added.end(),
                     [](const auto& a, const auto& b) {
                         return a.first < b.first;
                     });

    // Rebuild the table: each list keeps its successors and appends the
    // new ones it does not hold yet.
    const std::vector<uint32_t>& old_offsets = edgeOffsets_.owned();
    const std::vector<PackedHandle>& old_targets = edgeTargets_.owned();
    std::vector<uint32_t> offsets;
    std::vector<PackedHandle> targets;
    offsets.reserve(old_offsets.size());
    targets.reserve(old_targets.size() + added.size());
    offsets.push_back(0);
    auto next = added.begin();
    for (size_t slot = 0; slot + 1 < old_offsets.size(); ++slot) {
        const size_t begin = targets.size();
        targets.insert(targets.end(),
                       old_targets.begin() + old_offsets[slot],
                       old_targets.begin() + old_offsets[slot + 1]);
        for (; next != added.end() && next->first == slot; ++next) {
            const uint32_t packed = next->second.packed;
            if (std::none_of(targets.begin() + begin, targets.end(),
                             [packed](PackedHandle t) {
                                 return t.packed == packed;
                             })) {
                targets.push_back(next->second);
            }
        }
        offsets.push_back(util::fitU32(targets.size(), "edges.offsets"));
    }
    edgeOffsets_.adopt(std::move(offsets));
    edgeTargets_.adopt(std::move(targets));
    countEdges();
}

void
VariationGraph::countEdges()
{
    // Every bidirected edge is stored as itself and as its twin (once
    // when they coincide): count the lexicographically smaller of the
    // two.
    numEdges_ = 0;
    for (NodeId id = 1; id <= numNodes(); ++id) {
        for (bool reverse : {false, true}) {
            const Handle from(id, reverse);
            for (Handle to : successors(from)) {
                if (std::make_pair(from.packed(), to.packed()) <=
                    std::make_pair(to.flip().packed(),
                                   from.flip().packed())) {
                    ++numEdges_;
                }
            }
        }
    }
}

void
VariationGraph::addPath(std::string name, std::vector<Handle> steps)
{
    MG_CHECK(!steps.empty(), "paths must have at least one step");
    for (Handle step : steps) {
        MG_CHECK(hasNode(step.id()), "path '", name,
                 "' references unknown node ", step.str());
    }
    for (size_t i = 0; i + 1 < steps.size(); ++i) {
        MG_CHECK(hasEdge(steps[i], steps[i + 1]),
                 "path '", name, "' uses missing edge ", steps[i].str(),
                 " -> ", steps[i + 1].str());
    }
    paths_.push_back(PathEntry{std::move(name), std::move(steps)});
}

void
VariationGraph::bindMappedSequences(std::shared_ptr<mem::MappedFile> file,
                                    const uint64_t* words, size_t num_words,
                                    const uint32_t* offsets,
                                    size_t num_offsets, size_t num_nodes,
                                    size_t sanitized_bases)
{
    MG_CHECK(numNodes() == 0,
             "bindMappedSequences requires an empty graph");
    store_.bindMapped(std::move(file), words, num_words, offsets,
                      num_offsets, num_nodes, sanitized_bases);
    totalSequence_ = store_.totalBases();
}

void
VariationGraph::bindMappedEdges(std::shared_ptr<mem::MappedFile> file,
                                const uint32_t* offsets, size_t num_offsets,
                                const PackedHandle* targets,
                                size_t num_targets)
{
    const size_t expected = 2 * numNodes() + 1;
    if (num_offsets != expected) {
        util::failSection(util::StatusCode::Corrupt,
                          {.section = "edges.offsets"},
                          "edges.offsets: expected ", expected,
                          " entries for ", numNodes(), " nodes, got ",
                          num_offsets);
    }
    if (offsets[0] != 0) {
        util::failSection(util::StatusCode::Corrupt,
                          {.section = "edges.offsets"},
                          "edges.offsets: table must start at 0");
    }
    for (size_t slot = 0; slot + 1 < num_offsets; ++slot) {
        if (offsets[slot + 1] < offsets[slot]) {
            util::failSection(util::StatusCode::Corrupt,
                              {.section = "edges.offsets",
                               .offset = (slot + 1) * sizeof(uint32_t)},
                              "edges.offsets: decreasing at slot ",
                              slot + 1);
        }
    }
    if (offsets[num_offsets - 1] != num_targets) {
        util::failSection(util::StatusCode::Corrupt,
                          {.section = "edges.offsets",
                           .offset = (num_offsets - 1) * sizeof(uint32_t)},
                          "edges.offsets: table ends at ",
                          offsets[num_offsets - 1], ", edges holds ",
                          num_targets, " successors");
    }
    for (size_t i = 0; i < num_targets; ++i) {
        if (!hasNode(Handle(targets[i]).id())) {
            util::failSection(util::StatusCode::Corrupt,
                              {.section = "edges",
                               .offset = i * sizeof(PackedHandle)},
                              "edges: successor ", i, " names node ",
                              Handle(targets[i]).id(), " of ", numNodes());
        }
    }
    edgeOffsets_ = mem::ArenaView<uint32_t>();
    edgeTargets_ = mem::ArenaView<PackedHandle>();
    edgeOffsets_.bind(file, offsets, num_offsets);
    edgeTargets_.bind(std::move(file), targets, num_targets);
    countEdges();
}

size_t
VariationGraph::heapBytes() const
{
    size_t bytes = 0;
    if (!edgeOffsets_.isMapped()) {
        bytes += edgeOffsets_.reservedBytes() + edgeTargets_.reservedBytes();
    }
    bytes += paths_.capacity() * sizeof(PathEntry);
    for (const PathEntry& path : paths_) {
        bytes += path.name.capacity() + path.steps.capacity() * sizeof(Handle);
    }
    return bytes;
}

std::string
VariationGraph::forwardSequence(NodeId id) const
{
    MG_ASSERT(hasNode(id));
    return store_.forwardSequence(id);
}

std::string
VariationGraph::sequence(Handle handle) const
{
    MG_ASSERT(hasNode(handle.id()));
    // Both orientations live in the packed arena; no reverse complement
    // is computed here, only a decode.
    return store_.sequence(handle);
}

std::vector<Handle>
VariationGraph::predecessors(Handle handle) const
{
    std::vector<Handle> preds;
    for (Handle succ : successors(handle.flip())) {
        preds.push_back(succ.flip());
    }
    return preds;
}

bool
VariationGraph::hasEdge(Handle from, Handle to) const
{
    const std::span<const PackedHandle> succ = successors(from);
    return std::any_of(succ.begin(), succ.end(),
                       [to](Handle t) { return t == to; });
}

std::string
VariationGraph::pathSequence(const std::vector<Handle>& steps) const
{
    std::string out;
    for (Handle step : steps) {
        out += sequence(step);
    }
    return out;
}

std::vector<NodeId>
VariationGraph::topologicalOrder() const
{
    // Kahn's algorithm over forward-strand edges (forward handles only).
    std::vector<size_t> in_degree(numNodes() + 1, 0);
    for (NodeId id = 1; id <= numNodes(); ++id) {
        for (Handle succ : successors(Handle(id, false))) {
            MG_CHECK(!succ.isReverse(),
                     "topologicalOrder requires forward-only edges, found ",
                     Handle(id, false).str(), " -> ", succ.str());
            ++in_degree[succ.id()];
        }
    }
    std::vector<NodeId> frontier;
    for (NodeId id = 1; id <= numNodes(); ++id) {
        if (in_degree[id] == 0) {
            frontier.push_back(id);
        }
    }
    std::vector<NodeId> order;
    order.reserve(numNodes());
    while (!frontier.empty()) {
        NodeId id = frontier.back();
        frontier.pop_back();
        order.push_back(id);
        for (Handle succ : successors(Handle(id, false))) {
            if (--in_degree[succ.id()] == 0) {
                frontier.push_back(succ.id());
            }
        }
    }
    MG_CHECK(order.size() == numNodes(),
             "forward graph has a cycle; topological order impossible");
    return order;
}

void
VariationGraph::validate() const
{
    for (NodeId id = 1; id <= numNodes(); ++id) {
        std::string seq = forwardSequence(id);
        MG_CHECK(!seq.empty(), "empty sequence at node ", id);
        MG_CHECK(util::isDna(seq), "non-DNA sequence at node ", id);
        for (bool reverse : {false, true}) {
            Handle handle(id, reverse);
            for (Handle succ : successors(handle)) {
                MG_CHECK(hasNode(succ.id()), "edge to unknown node from ",
                         handle.str());
                MG_CHECK(hasEdge(succ.flip(), handle.flip()),
                         "missing reverse twin of edge ", handle.str(),
                         " -> ", succ.str());
            }
        }
    }
    for (const PathEntry& path : paths_) {
        for (size_t i = 0; i + 1 < path.steps.size(); ++i) {
            MG_CHECK(hasEdge(path.steps[i], path.steps[i + 1]),
                     "path '", path.name, "' step ", i, " has no edge");
        }
    }
}

} // namespace mg::graph
