#include "graph/variation_graph.h"

#include <algorithm>

#include "util/common.h"

namespace mg::graph {

namespace {

/** Empty adjacency list returned for handles with no successors. */
const std::vector<Handle> kNoNeighbors;

} // namespace

NodeId
VariationGraph::addNode(std::string sequence)
{
    MG_CHECK(!sequence.empty(), "node sequences must be non-empty");
    // Canonicalization (ambiguity letters -> 'A', counted) and rejection
    // of non-letter characters happen inside the packed store.
    totalSequence_ += sequence.size();
    store_.addNode(sequence);
    return static_cast<NodeId>(store_.numNodes());
}

void
VariationGraph::addEdge(Handle from, Handle to)
{
    // Message formatting is eager in MG_CHECK; this runs per container
    // edge on load, so only pay for str() when the check actually fails.
    if (!(hasNode(from.id()) && hasNode(to.id()))) {
        MG_CHECK(false, "edge references unknown node: ", from.str(),
                 " -> ", to.str());
    }
    uint64_t max_packed = std::max(from.packed(), to.flip().packed());
    if (adjacency_.size() <= max_packed) {
        adjacency_.resize(max_packed + 1);
    }
    auto& fwd = adjacency_[from.packed()];
    if (std::find(fwd.begin(), fwd.end(), to) != fwd.end()) {
        return; // already present
    }
    fwd.push_back(to);
    // The reverse-strand twin: flip(to) -> flip(from).  For a self-loop on
    // a palindromic orientation the twin may coincide with the original.
    if (!(to.flip() == from && from.flip() == to)) {
        auto& rev = adjacency_[to.flip().packed()];
        if (std::find(rev.begin(), rev.end(), from.flip()) == rev.end()) {
            rev.push_back(from.flip());
        }
    }
    ++numEdges_;
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

size_t
VariationGraph::heapBytes() const
{
    size_t bytes = adjacency_.capacity() * sizeof(adjacency_[0]);
    for (const std::vector<Handle>& list : adjacency_) {
        bytes += list.capacity() * sizeof(Handle);
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

const std::vector<Handle>&
VariationGraph::successors(Handle handle) const
{
    MG_ASSERT(hasNode(handle.id()));
    if (handle.packed() >= adjacency_.size()) {
        return kNoNeighbors;
    }
    return adjacency_[handle.packed()];
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
    const auto& succ = successors(from);
    return std::find(succ.begin(), succ.end(), to) != succ.end();
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
