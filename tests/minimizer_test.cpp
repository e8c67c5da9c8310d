/** Tests for minimizer selection and the minimizer index. */
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "index/minimizer.h"
#include "sim/input_sets.h"
#include "sim/pangenome_gen.h"
#include "util/dna.h"
#include "util/rng.h"
#include "util/status.h"

namespace mg::index {
namespace {

/** Brute-force minimizers: min-hash k-mer of every window. */
std::vector<Minimizer>
bruteForceMinimizers(std::string_view seq, const MinimizerParams& params)
{
    const int k = params.k;
    const int w = params.w;
    std::vector<Minimizer> out;
    if (static_cast<int>(seq.size()) < k + w - 1) {
        // Still emit if at least one window's worth of k-mers exists.
    }
    if (static_cast<int>(seq.size()) < k) {
        return out;
    }
    size_t num_kmers = seq.size() - k + 1;
    std::vector<uint64_t> hashes(num_kmers);
    for (size_t i = 0; i < num_kmers; ++i) {
        hashes[i] = util::hash64(util::packKmer(seq.substr(i), k));
    }
    uint32_t last = UINT32_MAX;
    for (size_t win_end = static_cast<size_t>(w) - 1; win_end < num_kmers;
         ++win_end) {
        size_t win_begin = win_end + 1 - w;
        size_t best = win_begin;
        for (size_t i = win_begin; i <= win_end; ++i) {
            if (hashes[i] < hashes[best]) {
                best = i;
            }
        }
        if (best != last) {
            out.push_back(Minimizer{hashes[best],
                                    static_cast<uint32_t>(best)});
            last = static_cast<uint32_t>(best);
        }
    }
    return out;
}

TEST(MinimizerTest, MatchesBruteForceOnRandomSequences)
{
    util::Rng rng(41);
    MinimizerParams params;
    params.k = 5;
    params.w = 4;
    for (int trial = 0; trial < 100; ++trial) {
        std::string seq = rng.randomDna(10 + rng.uniform(300));
        auto fast = minimizersOf(seq, params);
        auto brute = bruteForceMinimizers(seq, params);
        ASSERT_EQ(fast.size(), brute.size()) << "trial " << trial;
        for (size_t i = 0; i < fast.size(); ++i) {
            EXPECT_EQ(fast[i].offset, brute[i].offset);
            EXPECT_EQ(fast[i].hash, brute[i].hash);
        }
    }
}

TEST(MinimizerTest, MatchesBruteForceAcrossWindowAndKmerSizes)
{
    // Window sizes below, at and above the sweep's inline ring (32), and
    // k from tie-heavy short k-mers to a full 64-bit word.
    util::Rng rng(43);
    for (int k : {3, 15, 32}) {
        for (int w : {1, 2, 3, 8, 16, 31, 32, 40}) {
            MinimizerParams params;
            params.k = k;
            params.w = w;
            for (int trial = 0; trial < 10; ++trial) {
                std::string seq = rng.randomDna(rng.uniform(400));
                auto fast = minimizersOf(seq, params);
                auto brute = bruteForceMinimizers(seq, params);
                ASSERT_EQ(fast.size(), brute.size())
                    << "k " << k << " w " << w << " trial " << trial;
                for (size_t i = 0; i < fast.size(); ++i) {
                    EXPECT_EQ(fast[i].offset, brute[i].offset);
                    EXPECT_EQ(fast[i].hash, brute[i].hash);
                }
            }
        }
    }
}

TEST(MinimizerTest, ReverseComplementPassMatchesTheComplementString)
{
    util::Rng rng(44);
    MinimizerParams params;
    params.k = 15;
    params.w = 8;
    for (int trial = 0; trial < 50; ++trial) {
        std::string seq = rng.randomDna(rng.uniform(300));
        std::vector<Minimizer> rolled;
        appendMinimizers(seq, true, params, rolled);
        auto expected = minimizersOf(util::reverseComplement(seq), params);
        ASSERT_EQ(rolled.size(), expected.size()) << "trial " << trial;
        for (size_t i = 0; i < rolled.size(); ++i) {
            EXPECT_EQ(rolled[i].offset, expected[i].offset);
            EXPECT_EQ(rolled[i].hash, expected[i].hash);
        }
    }
}

TEST(MinimizerTest, ShortSequenceYieldsNothing)
{
    MinimizerParams params;
    params.k = 15;
    params.w = 8;
    EXPECT_TRUE(minimizersOf("ACGTACGT", params).empty());
}

TEST(MinimizerTest, WindowCoverageProperty)
{
    // Density bound: consecutive selected minimizers are less than k + w
    // apart, so any window of w consecutive k-mers contains one.
    util::Rng rng(42);
    MinimizerParams params;
    params.k = 9;
    params.w = 6;
    for (int trial = 0; trial < 30; ++trial) {
        std::string seq = rng.randomDna(500);
        auto mins = minimizersOf(seq, params);
        ASSERT_FALSE(mins.empty());
        EXPECT_LT(mins.front().offset, static_cast<uint32_t>(params.w));
        for (size_t i = 1; i < mins.size(); ++i) {
            EXPECT_GT(mins[i].offset, mins[i - 1].offset);
            EXPECT_LE(mins[i].offset - mins[i - 1].offset,
                      static_cast<uint32_t>(params.w));
        }
    }
}

TEST(MinimizerTest, HashMatchesKmerContent)
{
    MinimizerParams params;
    params.k = 7;
    params.w = 5;
    util::Rng rng(43);
    std::string seq = rng.randomDna(200);
    for (const Minimizer& min : minimizersOf(seq, params)) {
        uint64_t expected =
            util::hash64(util::packKmer(seq.substr(min.offset), params.k));
        EXPECT_EQ(min.hash, expected);
    }
}

class MinimizerIndexTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        sim::PangenomeParams params;
        params.seed = 55;
        params.backboneLength = 8000;
        params.haplotypes = 6;
        pg_ = sim::generatePangenome(params);
        indexParams_.k = 15;
        indexParams_.w = 8;
        index_ = MinimizerIndex(pg_.graph, indexParams_);
    }

    sim::GeneratedPangenome pg_;
    MinimizerParams indexParams_;
    MinimizerIndex index_;
};

TEST_F(MinimizerIndexTest, IndexIsNonTrivial)
{
    EXPECT_GT(index_.numKeys(), 100u);
    EXPECT_GE(index_.numEntries(), index_.numKeys());
}

TEST_F(MinimizerIndexTest, LookupMissReturnsEmpty)
{
    auto [positions, count] = index_.lookup(0xdeadbeefdeadbeefull);
    EXPECT_EQ(count, 0u);
    EXPECT_EQ(positions, nullptr);
}

TEST_F(MinimizerIndexTest, IndexedPositionsSpellTheirKmer)
{
    // Every indexed position must actually spell a k-mer that hashes to
    // its key.  Verify via haplotype minimizers (the source of entries).
    size_t checked = 0;
    for (const std::string& hap : pg_.sequences) {
        for (const Minimizer& min : minimizersOf(hap, indexParams_)) {
            auto [positions, count] = index_.lookup(min.hash);
            ASSERT_GT(count, 0u);
            ++checked;
            if (checked > 500) {
                return;
            }
        }
    }
}

TEST_F(MinimizerIndexTest, ReadFromHaplotypeAlwaysSeeds)
{
    // An error-free read sampled from an indexed haplotype shares all its
    // minimizers with the index.
    util::Rng rng(56);
    for (int trial = 0; trial < 50; ++trial) {
        const std::string& hap =
            pg_.sequences[rng.uniform(pg_.sequences.size())];
        size_t start = rng.uniform(hap.size() - 150);
        std::string read = hap.substr(start, 150);
        auto mins = minimizersOf(read, indexParams_);
        ASSERT_FALSE(mins.empty());
        size_t found = 0;
        for (const Minimizer& min : mins) {
            auto [positions, count] = index_.lookup(min.hash);
            (void)positions;
            if (count > 0) {
                ++found;
            }
        }
        // All of them (repeat-filtered entries could drop a few).
        EXPECT_GE(found * 10, mins.size() * 9) << "trial " << trial;
    }
}

TEST_F(MinimizerIndexTest, PositionsPointAtRealNodes)
{
    // Walk a few keys' position lists and bounds-check them.
    util::Rng rng(57);
    std::string probe = pg_.sequences[0].substr(0, 400);
    for (const Minimizer& min : minimizersOf(probe, indexParams_)) {
        auto [positions, count] = index_.lookup(min.hash);
        for (size_t i = 0; i < count; ++i) {
            const graph::Position pos = unpackPosition(positions[i]);
            ASSERT_TRUE(pg_.graph.hasNode(pos.handle.id()));
            ASSERT_LT(pos.offset, pg_.graph.length(pos.handle.id()));
        }
    }
}

TEST_F(MinimizerIndexTest, PackedPathMatchesStringSweep)
{
    // The packed-arena sweep (minimizersOfPath rolling codes out of
    // chunk32 fetches) must produce exactly the minimizers of the decoded
    // path string — same offsets, same hashes, same order.
    for (const graph::PathEntry& path : pg_.graph.paths()) {
        auto packed = minimizersOfPath(pg_.graph, path.steps, indexParams_);
        auto decoded = minimizersOf(pg_.graph.pathSequence(path.steps),
                                    indexParams_);
        ASSERT_EQ(packed.size(), decoded.size());
        for (size_t i = 0; i < packed.size(); ++i) {
            ASSERT_EQ(packed[i].offset, decoded[i].offset);
            ASSERT_EQ(packed[i].hash, decoded[i].hash);
        }
    }
}

TEST_F(MinimizerIndexTest, ParallelBuildIsIdenticalToSerial)
{
    // Fan-out over the work-stealing scheduler must not change the index:
    // per-path results merge in path order before the global sort.
    MinimizerParams serial = indexParams_;
    serial.buildThreads = 1;
    MinimizerParams parallel = indexParams_;
    parallel.buildThreads = 4;
    MinimizerIndex a(pg_.graph, serial);
    MinimizerIndex b(pg_.graph, parallel);
    ASSERT_EQ(a.numKeys(), b.numKeys());
    ASSERT_EQ(a.numEntries(), b.numEntries());
    // The bucket table holds every key with its hit or span, so equal
    // tables and equal position arrays are equal indexes.
    ASSERT_EQ(a.buckets().size(), b.buckets().size());
    for (size_t i = 0; i < a.buckets().size(); ++i) {
        ASSERT_EQ(a.buckets()[i].key, b.buckets()[i].key) << "bucket " << i;
        ASSERT_EQ(a.buckets()[i].value, b.buckets()[i].value)
            << "bucket " << i;
    }
    EXPECT_TRUE(a.positions() == b.positions());
}

TEST_F(MinimizerIndexTest, BucketsPartitionThePositionTable)
{
    // With no key array left, the buckets are the keys: one occupied
    // bucket per key, single hits inline, pooled spans tiling min.pos in
    // ascending key order, and every bucket reachable by lookup.
    std::vector<MinimizerBucket> occupied;
    for (const MinimizerBucket& bucket : index_.buckets()) {
        if (!bucket.empty()) {
            occupied.push_back(bucket);
        }
    }
    ASSERT_EQ(occupied.size(), index_.numKeys());
    EXPECT_LE(2 * occupied.size(), index_.buckets().size());
    std::sort(occupied.begin(), occupied.end(),
              [](const MinimizerBucket& a, const MinimizerBucket& b) {
                  return a.key < b.key;
              });
    uint64_t next = 0;
    size_t entries = 0;
    size_t inline_hits = 0;
    for (const MinimizerBucket& bucket : occupied) {
        auto [positions, count] = index_.lookup(bucket.key);
        ASSERT_EQ(count, bucket.count());
        entries += count;
        if (!bucket.pooled()) {
            ++inline_hits;
            ASSERT_EQ(*positions, bucket.value) << "key " << bucket.key;
            continue;
        }
        ASSERT_GE(bucket.count(), 2u) << "key " << bucket.key;
        ASSERT_EQ(bucket.first(), next) << "key " << bucket.key;
        ASSERT_EQ(positions, index_.positions().data() + bucket.first());
        next += bucket.count();
        // Within a key, positions ascend (packed words sort in Position
        // order).
        for (size_t i = 1; i < count; ++i) {
            ASSERT_LT(positions[i - 1], positions[i]);
            ASSERT_LT(unpackPosition(positions[i - 1]),
                      unpackPosition(positions[i]));
        }
    }
    EXPECT_EQ(next, index_.positions().size());
    EXPECT_EQ(entries, index_.numEntries());
    // Most keys of a pangenome have one hit.
    EXPECT_GT(2 * inline_hits, occupied.size());
}

TEST(PackedPositionTest, RoundTripsAtTheLimitsAndRejectsOnePast)
{
    // The largest handle that fits: node 2^31 - 1 on the reverse strand
    // packs to 2^32 - 1; the offset field takes any offset below 2^31
    // (bit 31 tags a pooled bucket).
    const graph::NodeId max_id = (graph::NodeId{1} << 31) - 1;
    const uint32_t max_offset = (uint32_t{1} << 31) - 1;
    for (const graph::Position& pos :
         {graph::Position{graph::Handle(1, false), 0},
          graph::Position{graph::Handle(max_id, true), max_offset},
          graph::Position{graph::Handle(max_id, false), 7}}) {
        const uint64_t packed = packPosition(pos);
        EXPECT_EQ(unpackPosition(packed), pos) << pos.str();
    }
    EXPECT_EQ(packPosition({graph::Handle(max_id, true), max_offset}),
              0xFFFFFFFF7FFFFFFFull);
    // Packed order is Position order.
    EXPECT_LT(packPosition({graph::Handle(3, false), max_offset}),
              packPosition({graph::Handle(3, true), 0}));
    EXPECT_LT(packPosition({graph::Handle(3, true), 4}),
              packPosition({graph::Handle(3, true), 5}));

    // One past: node 2^31 needs a 33-bit handle, offset 2^31 the tag bit.
    for (const graph::Position& pos :
         {graph::Position{graph::Handle(max_id + 1, false), 0},
          graph::Position{graph::Handle(1, false), max_offset + 1}}) {
        try {
            packPosition(pos);
            FAIL() << pos.str() << " must be rejected";
        } catch (const util::StatusError& error) {
            EXPECT_EQ(error.status().code,
                      util::StatusCode::InvalidArgument);
            EXPECT_EQ(error.status().section, "min.pos");
        }
    }
}

TEST(MinimizerIndexFilterTest, RepeatFilterDropsFrequentKeys)
{
    // A graph that is one long homopolymer-ish repeat: with a tiny
    // occurrence cap, the index drops the over-frequent keys.
    graph::VariationGraph g;
    std::string unit = "ACGTACGTACGTACGTACGTACGTACGTACGT";
    std::string repeat;
    for (int i = 0; i < 16; ++i) {
        repeat += unit;
    }
    graph::NodeId node = g.addNode(repeat);
    g.addPath("hap", {graph::Handle(node, false)});

    MinimizerParams strict;
    strict.k = 8;
    strict.w = 4;
    strict.maxOccurrences = 2;
    MinimizerIndex filtered(g, strict);

    MinimizerParams loose = strict;
    loose.maxOccurrences = 100000;
    MinimizerIndex unfiltered(g, loose);

    EXPECT_LT(filtered.numEntries(), unfiltered.numEntries());
}

/**
 * The revision-5 two-array layout, rebuilt here as the oracle of the
 * inline buckets: every key's positions in one key-major array, and a
 * linear-probing table of {key, offset, count} buckets at load <= 1/2.
 */
class TwoArrayIndex
{
  public:
    TwoArrayIndex(const graph::VariationGraph& graph,
                  const MinimizerParams& params)
    {
        std::vector<std::pair<uint64_t, uint64_t>> entries;
        for (const graph::PathEntry& path : graph.paths()) {
            std::vector<size_t> starts{0};
            for (graph::Handle step : path.steps) {
                starts.push_back(starts.back() + graph.length(step.id()));
            }
            for (const Minimizer& min :
                 minimizersOfPath(graph, path.steps, params)) {
                const size_t step = static_cast<size_t>(
                    std::upper_bound(starts.begin(), starts.end(),
                                     size_t{min.offset}) -
                    starts.begin() - 1);
                entries.emplace_back(
                    min.hash,
                    packPosition({path.steps[step],
                                  static_cast<uint32_t>(min.offset -
                                                        starts[step])}));
            }
        }
        std::sort(entries.begin(), entries.end());
        entries.erase(std::unique(entries.begin(), entries.end()),
                      entries.end());
        std::vector<Bucket> spans;
        for (size_t i = 0; i < entries.size();) {
            size_t j = i;
            while (j < entries.size() && entries[j].first == entries[i].first) {
                ++j;
            }
            if (j - i <= params.maxOccurrences) {
                spans.push_back({entries[i].first,
                                 static_cast<uint32_t>(positions_.size()),
                                 static_cast<uint32_t>(j - i)});
                for (size_t e = i; e < j; ++e) {
                    positions_.push_back(entries[e].second);
                }
            } else {
                filtered_.push_back(entries[i].first);
            }
            i = j;
        }
        size_t size = 2;
        while (size < 2 * spans.size()) {
            size *= 2;
        }
        buckets_.resize(size);
        for (const Bucket& span : spans) {
            size_t slot = span.key & (size - 1);
            while (buckets_[slot].count != 0) {
                slot = (slot + 1) & (size - 1);
            }
            buckets_[slot] = span;
            keys_.push_back(span.key);
        }
    }

    std::vector<uint64_t>
    lookup(uint64_t hash) const
    {
        const size_t mask = buckets_.size() - 1;
        for (size_t i = hash & mask;; i = (i + 1) & mask) {
            if (buckets_[i].count == 0) {
                return {};
            }
            if (buckets_[i].key == hash) {
                return {positions_.begin() + buckets_[i].offset,
                        positions_.begin() + buckets_[i].offset +
                            buckets_[i].count};
            }
        }
    }

    const std::vector<uint64_t>& keys() const { return keys_; }
    const std::vector<uint64_t>& filtered() const { return filtered_; }
    size_t numEntries() const { return positions_.size(); }

  private:
    struct Bucket
    {
        uint64_t key = 0;
        uint32_t offset = 0;
        uint32_t count = 0;
    };

    std::vector<uint64_t> positions_;
    std::vector<Bucket> buckets_;
    std::vector<uint64_t> keys_;
    std::vector<uint64_t> filtered_;
};

class InlineBucketOracle : public ::testing::TestWithParam<const char*>
{};

TEST_P(InlineBucketOracle, EveryKeyLooksUpItsTwoArrayPositions)
{
    const sim::InputSet set =
        sim::buildInputSet(sim::inputSetSpec(GetParam()), 0.01);
    const graph::VariationGraph& graph = set.pangenome.graph;
    MinimizerParams params;
    params.k = 15;
    params.w = 8;
    // The default repeat filter, and a tight one that drops keys.
    for (const size_t max_occurrences : {size_t{512}, size_t{3}}) {
        params.maxOccurrences = max_occurrences;
        const MinimizerIndex index(graph, params);
        const TwoArrayIndex oracle(graph, params);
        ASSERT_EQ(index.numKeys(), oracle.keys().size());
        ASSERT_EQ(index.numEntries(), oracle.numEntries());
        size_t single = 0;
        for (const uint64_t key : oracle.keys()) {
            const std::vector<uint64_t> expected = oracle.lookup(key);
            const auto [positions, count] = index.lookup(key);
            ASSERT_EQ(std::vector<uint64_t>(positions, positions + count),
                      expected)
                << GetParam() << " key " << key;
            single += count == 1 ? 1 : 0;
        }
        for (const uint64_t key : oracle.filtered()) {
            EXPECT_EQ(index.lookup(key).second, 0u) << key;
        }
        if (max_occurrences == 3) {
            EXPECT_FALSE(oracle.filtered().empty()) << GetParam();
        }
        // Most keys take the inline path, and some take the pooled one.
        EXPECT_GT(2 * single, oracle.keys().size()) << GetParam();
        EXPECT_LT(single, oracle.keys().size()) << GetParam();
        EXPECT_EQ(index.positions().size(),
                  oracle.numEntries() - single);
    }
}

INSTANTIATE_TEST_SUITE_P(InputSets, InlineBucketOracle,
                         ::testing::Values("A-human", "B-yeast", "C-HPRC",
                                           "D-HPRC"));

} // namespace
} // namespace mg::index
