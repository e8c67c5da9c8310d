/**
 * Seed-and-cluster front end against the formulations it replaced, on
 * every read of all four input-set analogs:
 *  - findSeedsInto against an appendSeeds-style findSeeds that builds a
 *    reverse-complement string and one minimizer vector per orientation;
 *  - clusterSeedsInto against the 32-byte-record clusterer that sorted
 *    Cluster objects by value (exact refinement on and off);
 *  - DistanceIndex::minDistance against a std::priority_queue +
 *    std::unordered_map Dijkstra, on every refinement query plus random
 *    pairs that hit the cap or cannot reach each other.
 * The reference copies below keep the replaced code's orders, float
 * accumulation and tie-breaks.
 *
 * Registered under the `kernel-matrix` ctest label; the asan/tsan presets
 * include it.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <queue>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/distance.h"
#include "index/minimizer.h"
#include "map/cluster.h"
#include "map/seeding.h"
#include "sim/input_sets.h"
#include "util/dna.h"
#include "util/rng.h"

namespace mg::map {
namespace {

// ---------------------------------------------------------------- oracles

void
referenceAppendSeeds(const index::MinimizerIndex& index, std::string_view seq,
                     bool on_reverse_read, const SeedingParams& params,
                     SeedVector& out)
{
    for (const index::Minimizer& min :
         index::minimizersOf(seq, index.params())) {
        auto [positions, count] = index.lookup(min.hash);
        if (count == 0 || count > params.maxSeedsPerMinimizer) {
            continue;
        }
        float score = 1.0f / (1.0f + std::log2(static_cast<float>(count)));
        for (size_t i = 0; i < count; ++i) {
            Seed seed;
            seed.position = index::unpackPosition(positions[i]);
            seed.readOffset = min.offset;
            seed.onReverseRead = on_reverse_read;
            seed.score = score;
            out.push_back(seed);
        }
    }
}

/** Seeds of an ACGT read, the way findSeeds produced them before. */
SeedVector
referenceFindSeeds(const index::MinimizerIndex& index, const Read& read,
                   const SeedingParams& params)
{
    SeedVector seeds;
    referenceAppendSeeds(index, read.sequence, false, params, seeds);
    std::string rc = util::reverseComplement(read.sequence);
    referenceAppendSeeds(index, rc, true, params, seeds);
    return seeds;
}

/** The per-call Dijkstra minDistance replaced. */
int64_t
referenceMinDistance(const graph::VariationGraph& graph,
                     const graph::Position& a, const graph::Position& b,
                     int64_t cap)
{
    if (a.handle == b.handle && b.offset >= a.offset) {
        return static_cast<int64_t>(b.offset) -
               static_cast<int64_t>(a.offset);
    }
    int64_t from_a_to_node_end =
        static_cast<int64_t>(graph.length(a.handle.id())) -
        static_cast<int64_t>(a.offset);
    using Item = std::pair<int64_t, uint64_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
    std::unordered_map<uint64_t, int64_t> dist;
    for (graph::Handle succ : graph.successors(a.handle)) {
        if (from_a_to_node_end <= cap) {
            dist[succ.packed()] = from_a_to_node_end;
            queue.emplace(from_a_to_node_end, succ.packed());
        }
    }
    while (!queue.empty()) {
        auto [d, packed] = queue.top();
        queue.pop();
        graph::Handle handle = graph::Handle::fromPacked(packed);
        auto it = dist.find(packed);
        if (it != dist.end() && it->second < d) {
            continue;
        }
        if (handle == b.handle) {
            return d + static_cast<int64_t>(b.offset);
        }
        int64_t next = d + static_cast<int64_t>(graph.length(handle.id()));
        if (next > cap) {
            continue;
        }
        for (graph::Handle succ : graph.successors(handle)) {
            auto [sit, inserted] = dist.try_emplace(succ.packed(), next);
            if (inserted || next < sit->second) {
                sit->second = next;
                queue.emplace(next, succ.packed());
            }
        }
    }
    return index::kUnreachable;
}

/** One refinement query of the reference clusterer. */
struct Query
{
    graph::Position from;
    graph::Position to;
    int64_t cap = 0;
};

/** The record-sorting clusterer clusterSeedsInto replaced. */
class ReferenceClusterer
{
  public:
    ReferenceClusterer(const graph::VariationGraph& graph,
                       const index::DistanceIndex& distance,
                       const ClusterParams& params,
                       std::vector<Query>* queries)
        : graph_(graph), distance_(distance), params_(params),
          queries_(queries)
    {}

    std::vector<Cluster>
    cluster(const SeedVector& seeds)
    {
        std::vector<Cluster> out;
        std::vector<Keyed> forward;
        std::vector<Keyed> reverse;
        for (uint32_t i = 0; i < seeds.size(); ++i) {
            const Seed& seed = seeds[i];
            Keyed keyed;
            keyed.coord = distance_.chainCoordinate(seed.position);
            keyed.key = keyed.coord - static_cast<int64_t>(seed.readOffset);
            keyed.seed = i;
            keyed.readOff = seed.readOffset;
            keyed.score = seed.score;
            (seed.onReverseRead ? reverse : forward).push_back(keyed);
        }
        sweep(seeds, forward, false, out);
        sweep(seeds, reverse, true, out);
        std::sort(out.begin(), out.end(),
                  [](const Cluster& a, const Cluster& b) {
                      if (a.score != b.score) {
                          return a.score > b.score;
                      }
                      if (a.onReverseRead != b.onReverseRead) {
                          return !a.onReverseRead;
                      }
                      return a.seedIndices < b.seedIndices;
                  });
        return out;
    }

  private:
    struct Keyed
    {
        int64_t key;
        int64_t coord;
        uint32_t seed;
        uint32_t readOff;
        float score;
    };

    static void
    emit(const Keyed* members, size_t count, bool on_reverse,
         std::vector<Cluster>& out)
    {
        Cluster cluster;
        cluster.onReverseRead = on_reverse;
        std::vector<Keyed> by_offset(members, members + count);
        std::sort(by_offset.begin(), by_offset.end(),
                  [](const Keyed& a, const Keyed& b) {
                      if (a.readOff != b.readOff) {
                          return a.readOff < b.readOff;
                      }
                      return a.seed < b.seed;
                  });
        uint32_t last_offset = UINT32_MAX;
        for (const Keyed& member : by_offset) {
            cluster.seedIndices.push_back(member.seed);
            if (member.readOff != last_offset) {
                cluster.score += member.score;
                ++cluster.coverage;
                last_offset = member.readOff;
            }
        }
        out.push_back(std::move(cluster));
    }

    void
    refine(const SeedVector& seeds, const Keyed* group, size_t count,
           bool on_reverse, std::vector<Cluster>& out)
    {
        if (!params_.exactRefinement || count < 2) {
            emit(group, count, on_reverse, out);
            return;
        }
        std::vector<Keyed> ordered(group, group + count);
        std::sort(ordered.begin(), ordered.end(),
                  [](const Keyed& a, const Keyed& b) {
                      if (a.coord != b.coord) {
                          return a.coord < b.coord;
                      }
                      return a.seed < b.seed;
                  });
        size_t segment_begin = 0;
        for (size_t i = 1; i < ordered.size(); ++i) {
            const graph::Position& from = seeds[ordered[i - 1].seed].position;
            const graph::Position& to = seeds[ordered[i].seed].position;
            int64_t expected = ordered[i].coord - ordered[i - 1].coord;
            bool consistent = true;
            if (!(from == to)) {
                const int64_t cap = expected + params_.exactDistanceCap;
                if (queries_ != nullptr) {
                    queries_->push_back(Query{from, to, cap});
                }
                int64_t exact = referenceMinDistance(graph_, from, to, cap);
                consistent = exact != index::kUnreachable &&
                             std::llabs(exact - expected) <=
                                 params_.distanceLimit;
            }
            if (!consistent) {
                emit(ordered.data() + segment_begin, i - segment_begin,
                     on_reverse, out);
                segment_begin = i;
            }
        }
        emit(ordered.data() + segment_begin, ordered.size() - segment_begin,
             on_reverse, out);
    }

    void
    sweep(const SeedVector& seeds, std::vector<Keyed>& keyed,
          bool on_reverse, std::vector<Cluster>& out)
    {
        if (keyed.empty()) {
            return;
        }
        std::sort(keyed.begin(), keyed.end(),
                  [](const Keyed& a, const Keyed& b) {
                      if (a.key != b.key) {
                          return a.key < b.key;
                      }
                      return a.seed < b.seed;
                  });
        size_t begin = 0;
        for (size_t i = 1; i <= keyed.size(); ++i) {
            bool split = i == keyed.size() ||
                         keyed[i].key - keyed[i - 1].key >
                             params_.distanceLimit;
            if (!split) {
                continue;
            }
            refine(seeds, keyed.data() + begin, i - begin, on_reverse, out);
            begin = i;
        }
    }

    const graph::VariationGraph& graph_;
    const index::DistanceIndex& distance_;
    ClusterParams params_;
    std::vector<Query>* queries_;
};

// ---------------------------------------------------------------- helpers

bool
sameBits(float a, float b)
{
    return std::memcmp(&a, &b, sizeof(float)) == 0;
}

::testing::AssertionResult
sameSeeds(const SeedVector& expected, const SeedVector& actual)
{
    if (expected.size() != actual.size()) {
        return ::testing::AssertionFailure()
               << expected.size() << " seeds expected, got "
               << actual.size();
    }
    for (size_t i = 0; i < expected.size(); ++i) {
        if (!(expected[i] == actual[i]) ||
            !sameBits(expected[i].score, actual[i].score)) {
            return ::testing::AssertionFailure() << "seed " << i << " differs";
        }
    }
    return ::testing::AssertionSuccess();
}

::testing::AssertionResult
sameClusters(const std::vector<Cluster>& expected,
             const std::vector<Cluster>& actual)
{
    if (expected.size() != actual.size()) {
        return ::testing::AssertionFailure()
               << expected.size() << " clusters expected, got "
               << actual.size();
    }
    for (size_t c = 0; c < expected.size(); ++c) {
        const Cluster& e = expected[c];
        const Cluster& a = actual[c];
        if (e.seedIndices != a.seedIndices || !sameBits(e.score, a.score) ||
            e.coverage != a.coverage || e.onReverseRead != a.onReverseRead) {
            return ::testing::AssertionFailure()
                   << "cluster " << c << " differs";
        }
    }
    return ::testing::AssertionSuccess();
}

struct FrontWorld
{
    sim::InputSet set;
    index::MinimizerIndex minimizers;
    index::DistanceIndex distance;
};

FrontWorld
buildWorld(const std::string& input_set)
{
    FrontWorld world;
    world.set = sim::buildInputSet(sim::inputSetSpec(input_set), 0.03);
    index::MinimizerParams mparams;
    mparams.k = 15;
    mparams.w = 8;
    world.minimizers =
        index::MinimizerIndex(world.set.pangenome.graph, mparams);
    world.distance = index::DistanceIndex(world.set.pangenome.graph);
    return world;
}

class FrontEndProperty : public ::testing::TestWithParam<const char*>
{};

// ------------------------------------------------------------------ tests

TEST_P(FrontEndProperty, FindSeedsIntoMatchesReference)
{
    const FrontWorld world = buildWorld(GetParam());
    const std::vector<Read>& reads = world.set.reads.reads;
    ASSERT_FALSE(reads.empty());
    const SeedingParams params;
    SeedVector seeds; // one buffer for every read, as a worker keeps
    size_t total = 0;
    for (const Read& read : reads) {
        findSeedsInto(world.minimizers, read, params, seeds);
        ASSERT_TRUE(sameSeeds(referenceFindSeeds(world.minimizers, read,
                                                 params),
                              seeds))
            << read.name;
        total += seeds.size();
    }
    EXPECT_GT(total, reads.size());

    // Reads shorter than k, and too short for one full window.
    const index::MinimizerParams& mp = world.minimizers.params();
    const Read& long_read = reads.front();
    for (size_t len = 0;
         len <= static_cast<size_t>(mp.k + mp.w) &&
         len <= long_read.sequence.size();
         ++len) {
        Read prefix = long_read;
        prefix.sequence.resize(len);
        findSeedsInto(world.minimizers, prefix, params, seeds);
        EXPECT_TRUE(sameSeeds(referenceFindSeeds(world.minimizers, prefix,
                                                 params),
                              seeds))
            << "length " << len;
        if (len < static_cast<size_t>(mp.k)) {
            EXPECT_TRUE(seeds.empty()) << "length " << len;
        }
    }
}

TEST_P(FrontEndProperty, AmbiguityLettersFollowTheCanonicalPolicy)
{
    // An ambiguity letter rolls in as 'A' (so as 'T' on the reverse
    // strand), and a lower-case base as its upper-case self: the seeds of
    // a raw read are the seeds of its sanitized copy.  (The reference
    // builds a reverse-complement string, which accepts only ACGT, so it
    // runs on the sanitized copy.)
    const FrontWorld world = buildWorld(GetParam());
    const SeedingParams params;
    util::Rng rng(41);
    const char letters[] = {'N', 'R', 'Y', 'n', 'a', 'c', 'g', 't'};
    SeedVector seeds;
    size_t checked = 0;
    for (const Read& read : world.set.reads.reads) {
        if (checked == 200) {
            break;
        }
        Read raw = read;
        for (int edit = 0; edit < 4 && !raw.sequence.empty(); ++edit) {
            raw.sequence[rng.uniform(raw.sequence.size())] =
                letters[rng.uniform(sizeof(letters))];
        }
        Read clean = raw;
        util::sanitizeDna(clean.sequence);
        findSeedsInto(world.minimizers, raw, params, seeds);
        ASSERT_TRUE(sameSeeds(referenceFindSeeds(world.minimizers, clean,
                                                 params),
                              seeds))
            << read.name;
        ++checked;
    }
    EXPECT_GT(checked, 0u);
}

TEST_P(FrontEndProperty, ClusterSeedsIntoMatchesReference)
{
    const FrontWorld world = buildWorld(GetParam());
    const graph::VariationGraph& graph = world.set.pangenome.graph;
    for (bool exact : {true, false}) {
        ClusterParams params;
        params.exactRefinement = exact;
        ReferenceClusterer reference(graph, world.distance, params, nullptr);
        std::vector<Cluster> clusters; // reused across reads
        SeedVector seeds;
        SeedVector mirrored;
        size_t formed = 0;
        for (const Read& read : world.set.reads.reads) {
            findSeedsInto(world.minimizers, read, SeedingParams(), seeds);
            clusterSeedsInto(graph, world.distance, seeds, params,
                             clusters);
            ASSERT_TRUE(sameClusters(reference.cluster(seeds), clusters))
                << read.name << (exact ? " (exact)" : " (sweep only)");
            formed += clusters.size();
            // Every seed beside its mirror on the other strand: each
            // cluster ties in score with its mirror, and the strand rule,
            // not the seed indices, must order the two.
            mirrored.clear();
            for (Seed seed : seeds) {
                mirrored.push_back(seed);
                seed.onReverseRead = !seed.onReverseRead;
                mirrored.push_back(seed);
            }
            std::reverse(mirrored.begin(), mirrored.end());
            clusterSeedsInto(graph, world.distance, mirrored, params,
                             clusters);
            ASSERT_TRUE(sameClusters(reference.cluster(mirrored), clusters))
                << read.name << " mirrored"
                << (exact ? " (exact)" : " (sweep only)");
        }
        EXPECT_GT(formed, world.set.reads.size()) << exact;
    }
}

TEST_P(FrontEndProperty, MinDistanceMatchesDijkstra)
{
    const FrontWorld world = buildWorld(GetParam());
    const graph::VariationGraph& graph = world.set.pangenome.graph;

    // Every query the refinement stage makes on this read set.
    std::vector<Query> queries;
    ReferenceClusterer reference(graph, world.distance, ClusterParams(),
                                 &queries);
    SeedVector seeds;
    for (const Read& read : world.set.reads.reads) {
        findSeedsInto(world.minimizers, read, SeedingParams(), seeds);
        reference.cluster(seeds);
    }
    ASSERT_FALSE(queries.empty());

    // Random pairs: forward and backward, with caps from tiny (the search
    // stops at the cap) to the whole graph.
    util::Rng rng(7);
    const int64_t caps[] = {0, 4, 32, 512, 1 << 20};
    for (int i = 0; i < 3000; ++i) {
        Query q;
        for (graph::Position* pos : {&q.from, &q.to}) {
            const auto id = static_cast<graph::NodeId>(
                1 + rng.uniform(graph.numNodes()));
            pos->handle = graph::Handle(id, false);
            pos->offset = static_cast<uint32_t>(rng.uniform(graph.length(id)));
        }
        q.cap = caps[rng.uniform(std::size(caps))];
        queries.push_back(q);
        // Caps at the boundary: the search may step to a node whose start
        // lies exactly `cap` bases on, and no further.
        const int64_t reach =
            referenceMinDistance(graph, q.from, q.to, 1 << 20);
        if (reach != index::kUnreachable && !(q.from.handle == q.to.handle)) {
            const int64_t to_start = reach - q.to.offset;
            queries.push_back(Query{q.from, q.to, to_start});
            queries.push_back(Query{q.from, q.to, to_start - 1});
        }
    }

    size_t unreachable = 0;
    size_t capped = 0;
    for (const Query& q : queries) {
        const int64_t expected =
            referenceMinDistance(graph, q.from, q.to, q.cap);
        ASSERT_EQ(expected, world.distance.minDistance(graph, q.from, q.to,
                                                       q.cap))
            << q.from.handle.id() << ":" << q.from.offset << " -> "
            << q.to.handle.id() << ":" << q.to.offset << " cap " << q.cap;
        if (expected == index::kUnreachable) {
            ++unreachable;
            if (referenceMinDistance(graph, q.from, q.to, 1 << 20) !=
                index::kUnreachable) {
                ++capped;
            }
        }
    }
    // The cases the property is about must actually occur.
    EXPECT_GT(unreachable, capped);
    EXPECT_GT(capped, 0u);
}

INSTANTIATE_TEST_SUITE_P(InputSets, FrontEndProperty,
                         ::testing::Values("A-human", "B-yeast", "C-HPRC",
                                           "D-HPRC"));

} // namespace
} // namespace mg::map
