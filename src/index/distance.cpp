#include "index/distance.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/common.h"
#include "util/dna.h"
#include "util/status.h"

namespace mg::index {

namespace {

/**
 * Reusable state of one thread's minDistance searches: the Dijkstra queue
 * (a binary min-heap of (distance, packed handle), the order
 * std::priority_queue keeps) and an open-addressing map from packed
 * handle to best known distance.  A new search clears the map by bumping
 * a generation stamp, so neither structure is ever rebuilt; both grow
 * only to the largest search the thread has run — the nodes within one
 * query's cap — never to the graph's node count.
 */
class SearchScratch
{
  public:
    void
    begin()
    {
        heap_.clear();
        live_ = 0;
        if (slots_.empty()) {
            slots_.resize(kInitialSlots);
        }
        if (++generation_ == 0) { // stamp wrapped: forget every slot
            for (Slot& slot : slots_) {
                slot.generation = 0;
            }
            generation_ = 1;
        }
    }

    bool queueEmpty() const { return heap_.empty(); }

    void
    push(int64_t distance, uint64_t packed)
    {
        heap_.emplace_back(distance, packed);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }

    std::pair<int64_t, uint64_t>
    pop()
    {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        const std::pair<int64_t, uint64_t> top = heap_.back();
        heap_.pop_back();
        return top;
    }

    /** Best distance recorded for `packed` in this search, or
     *  kUnreachable. */
    int64_t
    best(uint64_t packed) const
    {
        const Slot& slot = slots_[probe(packed)];
        return slot.generation == generation_ ? slot.distance : kUnreachable;
    }

    /** Record `distance` for `packed` if it is new or shorter; true if
     *  it was recorded. */
    bool
    improve(uint64_t packed, int64_t distance)
    {
        size_t i = probe(packed);
        if (slots_[i].generation == generation_) {
            if (slots_[i].distance <= distance) {
                return false;
            }
        } else {
            if (2 * (live_ + 1) > slots_.size()) {
                grow();
                i = probe(packed);
            }
            slots_[i].key = packed;
            slots_[i].generation = generation_;
            ++live_;
        }
        slots_[i].distance = distance;
        return true;
    }

  private:
    static constexpr size_t kInitialSlots = 64;

    struct Slot
    {
        uint64_t key = 0;
        int64_t distance = 0;
        uint32_t generation = 0;
    };

    /** Slot holding `packed` in this search, or the empty slot where it
     *  would go (linear probing; the table stays at most half full). */
    size_t
    probe(uint64_t packed) const
    {
        const size_t mask = slots_.size() - 1;
        for (size_t i = util::hash64(packed) & mask;; i = (i + 1) & mask) {
            const Slot& slot = slots_[i];
            if (slot.generation != generation_ || slot.key == packed) {
                return i;
            }
        }
    }

    void
    grow()
    {
        std::vector<Slot> old(2 * slots_.size());
        old.swap(slots_);
        for (const Slot& slot : old) {
            if (slot.generation == generation_) {
                slots_[probe(slot.key)] = slot;
            }
        }
    }

    std::vector<std::pair<int64_t, uint64_t>> heap_;
    std::vector<Slot> slots_;
    size_t live_ = 0;
    uint32_t generation_ = 0;
};

SearchScratch&
searchScratch()
{
    static thread_local SearchScratch s;
    return s;
}

/**
 * Chain coordinates must fit the clusterer's 32-bit sort-key fields and
 * the 32-bit dist array: every base's coordinate, prefix + offset, stays
 * within [0, kMaxChainCoordinate].  Throws StatusError(`code`) naming the
 * array.
 */
template <typename T>
void
requireCompactCoordinates(const graph::VariationGraph& graph,
                          const T* min_from_source, size_t num_nodes,
                          util::StatusCode code)
{
    for (size_t i = 0; i < num_nodes; ++i) {
        const auto length = static_cast<int64_t>(
            graph.length(static_cast<graph::NodeId>(i + 1)));
        const auto prefix = static_cast<int64_t>(min_from_source[i]);
        if (prefix < 0 || prefix > kMaxChainCoordinate - length) {
            util::failSection(
                code, {.section = "dist.min", .offset = i * sizeof(T)},
                "distance index: node ", i + 1, " spans chain coordinates [",
                prefix, ", ", prefix + length, "), outside [0, ",
                kMaxChainCoordinate, "]");
        }
    }
}

} // namespace

DistanceIndex::DistanceIndex(const graph::VariationGraph& graph)
{
    const size_t n = graph.numNodes();
    std::vector<int64_t> min_from(n, INT64_MAX);
    for (graph::NodeId id : graph.topologicalOrder()) {
        graph::Handle handle(id, false);
        if (min_from[id - 1] == INT64_MAX) {
            min_from[id - 1] = 0; // source node
        }
        int64_t out_min = min_from[id - 1] +
                          static_cast<int64_t>(graph.length(id));
        for (graph::Handle succ : graph.successors(handle)) {
            int64_t& succ_min = min_from[succ.id() - 1];
            succ_min = std::min(succ_min == INT64_MAX ? out_min : succ_min,
                                out_min);
        }
    }
    requireCompactCoordinates(graph, min_from.data(), n,
                              util::StatusCode::InvalidArgument);
    minFromSource_.adopt(std::vector<int32_t>(min_from.begin(),
                                              min_from.end()));
}

void
DistanceIndex::bindMapped(std::shared_ptr<mem::MappedFile> file,
                          const graph::VariationGraph& graph,
                          const int32_t* min_from_source, size_t num_nodes)
{
    util::require(num_nodes == graph.numNodes(), "distance index: ",
                  num_nodes, " entries for ", graph.numNodes(), " nodes");
    requireCompactCoordinates(graph, min_from_source, num_nodes,
                              util::StatusCode::Corrupt);
    minFromSource_ = mem::ArenaView<int32_t>();
    minFromSource_.bind(std::move(file), min_from_source, num_nodes);
}

int64_t
DistanceIndex::chainCoordinate(const graph::Position& pos) const
{
    graph::NodeId id = pos.handle.id();
    MG_ASSERT(id >= 1 && id <= minFromSource_.size());
    MG_ASSERT(!pos.handle.isReverse());
    return minFromSource_[id - 1] + static_cast<int64_t>(pos.offset);
}

int64_t
DistanceIndex::estimatedDistance(const graph::Position& a,
                                 const graph::Position& b) const
{
    return chainCoordinate(b) - chainCoordinate(a);
}

int64_t
DistanceIndex::minDistance(const graph::VariationGraph& graph,
                           const graph::Position& a, const graph::Position& b,
                           int64_t cap) const
{
    MG_ASSERT(!a.handle.isReverse() && !b.handle.isReverse());
    if (a.handle == b.handle && b.offset >= a.offset) {
        return static_cast<int64_t>(b.offset) -
               static_cast<int64_t>(a.offset);
    }
    // Dijkstra over nodes: dist[v] = bases between position a and the start
    // of node v along the best walk.
    int64_t from_a_to_node_end =
        static_cast<int64_t>(graph.length(a.handle.id())) -
        static_cast<int64_t>(a.offset);
    SearchScratch& search = searchScratch();
    search.begin();
    if (from_a_to_node_end <= cap) {
        for (graph::Handle succ : graph.successors(a.handle)) {
            if (search.improve(succ.packed(), from_a_to_node_end)) {
                search.push(from_a_to_node_end, succ.packed());
            }
        }
    }
    while (!search.queueEmpty()) {
        auto [d, packed] = search.pop();
        graph::Handle handle = graph::Handle::fromPacked(packed);
        if (search.best(packed) < d) {
            continue; // stale entry
        }
        if (handle == b.handle) {
            // d is the walk-index distance from base a to this node's first
            // base; add b's offset within the node.
            return d + static_cast<int64_t>(b.offset);
        }
        int64_t next = d + static_cast<int64_t>(graph.length(handle.id()));
        if (next > cap) {
            continue;
        }
        for (graph::Handle succ : graph.successors(handle)) {
            if (search.improve(succ.packed(), next)) {
                search.push(next, succ.packed());
            }
        }
    }
    return kUnreachable;
}

} // namespace mg::index
