#include "index/minimizer.h"

#include <algorithm>
#include <bit>
#include <thread>

#include "sched/scheduler.h"
#include "util/common.h"
#include "util/dna.h"
#include "util/small_vector.h"
#include "util/status.h"

namespace mg::index {

namespace {

/**
 * The minimizer sweep, fed one 2-bit code at a time so the same machinery
 * serves decoded strings, reverse complements rolled backwards and the
 * packed arena.  Each window of w consecutive k-mers contributes its
 * minimum hash, the leftmost on ties, and a selected occurrence is
 * emitted once.  The sweep keeps the window's k-mers in a fixed
 * power-of-two ring plus the current minimum: a new k-mer replaces the
 * minimum only if strictly smaller, and the window is rescanned only when
 * the minimum slides out, so the per-base branches are predictable.  The
 * ring lives inline for any w up to 32, so a sweep allocates nothing but
 * `out`.
 */
class Sweep
{
  public:
    Sweep(const MinimizerParams& params, std::vector<Minimizer>& out)
        : k_(static_cast<uint32_t>(params.k)),
          w_(static_cast<uint32_t>(params.w)),
          mask_(params.k == 32 ? ~uint64_t{0}
                               : ((uint64_t{1} << (2 * params.k)) - 1)),
          out_(out)
    {
        MG_ASSERT(params.k >= 1 && params.k <= 32);
        MG_ASSERT(params.w >= 1);
        ring_.resize(std::bit_ceil(size_t{w_}));
        ringMask_ = static_cast<uint32_t>(ring_.size() - 1);
    }

    void
    push(uint8_t code)
    {
        packed_ = ((packed_ << 2) | code) & mask_;
        if (++pos_ < k_) {
            return;
        }
        // The k-mer ending at pos_ - 1 starts at this offset.
        const uint32_t offset = pos_ - k_;
        const uint64_t hash = util::hash64(packed_);
        ring_[offset & ringMask_] = Minimizer{hash, offset};
        if (offset >= w_ && min_.offset <= offset - w_) {
            // The minimum left the window [offset - w + 1, offset]:
            // rescan it left to right, keeping the leftmost minimum.
            min_ = ring_[(offset - w_ + 1) & ringMask_];
            for (uint32_t o = offset - w_ + 2; o <= offset; ++o) {
                const Minimizer& candidate = ring_[o & ringMask_];
                if (candidate.hash < min_.hash) {
                    min_ = candidate;
                }
            }
        } else if (offset == 0 || hash < min_.hash) {
            min_ = Minimizer{hash, offset};
        }
        // Once the first full window has formed, emit its minimum.
        if (offset + 1 >= w_ && min_.offset != lastEmitted_) {
            out_.push_back(min_);
            lastEmitted_ = min_.offset;
        }
    }

  private:
    const uint32_t k_;
    const uint32_t w_;
    const uint64_t mask_;
    uint64_t packed_ = 0;
    uint32_t pos_ = 0;
    // The window's k-mers by offset modulo the ring size.
    util::SmallVector<Minimizer, 32> ring_;
    uint32_t ringMask_ = 0;
    Minimizer min_;
    uint32_t lastEmitted_ = UINT32_MAX;
    std::vector<Minimizer>& out_;
};

/** (hash, packed position) pairs of one path, for the index merge. */
using Entry = std::pair<uint64_t, uint64_t>;

/** Collect one path's index entries (any thread; touches only `entries`). */
void
collectPathEntries(const graph::VariationGraph& graph,
                   const graph::PathEntry& path,
                   const MinimizerParams& params,
                   std::vector<Entry>& entries)
{
    // Cumulative start offset of each step inside the path sequence.
    std::vector<size_t> step_starts(path.steps.size() + 1, 0);
    for (size_t s = 0; s < path.steps.size(); ++s) {
        step_starts[s + 1] = step_starts[s] + graph.length(path.steps[s].id());
    }
    for (const Minimizer& min : minimizersOfPath(graph, path.steps, params)) {
        // Locate the step containing this offset.
        auto it = std::upper_bound(step_starts.begin(), step_starts.end(),
                                   static_cast<size_t>(min.offset));
        size_t step = static_cast<size_t>(it - step_starts.begin()) - 1;
        graph::Position pos;
        pos.handle = path.steps[step];
        pos.offset = static_cast<uint32_t>(min.offset - step_starts[step]);
        entries.emplace_back(min.hash, packPosition(pos));
    }
}

} // namespace

uint64_t
packPosition(const graph::Position& pos)
{
    if (pos.offset & MinimizerBucket::kPooled) {
        util::failSection(util::StatusCode::InvalidArgument,
                          {.section = "min.pos"}, "node offset ", pos.offset,
                          " does not fit the 31-bit position field");
    }
    return uint64_t{util::fitU32(pos.handle.packed(), "min.pos")} << 32 |
           pos.offset;
}

void
appendMinimizers(std::string_view sequence, bool reverse_complement,
                 const MinimizerParams& params, std::vector<Minimizer>& out)
{
    Sweep sweep(params, out);
    if (static_cast<int>(sequence.size()) < params.k) {
        return;
    }
    // Post-ingest sequences are pure ACGT; ad-hoc callers get the
    // canonicalization policy (ambiguity letters roll in as 'A', so on
    // the reverse strand they complement to 'T').
    if (!reverse_complement) {
        for (char base : sequence) {
            sweep.push(util::canonicalCode(base));
        }
        return;
    }
    for (size_t i = sequence.size(); i-- > 0;) {
        sweep.push(static_cast<uint8_t>(3 - util::canonicalCode(sequence[i])));
    }
}

std::vector<Minimizer>
minimizersOf(std::string_view sequence, const MinimizerParams& params)
{
    std::vector<Minimizer> out;
    appendMinimizers(sequence, false, params, out);
    return out;
}

std::vector<Minimizer>
minimizersOfPath(const graph::VariationGraph& graph,
                 const std::vector<graph::Handle>& steps,
                 const MinimizerParams& params)
{
    std::vector<Minimizer> out;
    Sweep sweep(params, out);
    for (graph::Handle step : steps) {
        // Roll codes straight out of the packed arena: one word fetch per
        // 32 bases, two ALU ops per base, no decoded string.
        util::PackedSpan view = graph.packedView(step);
        uint32_t i = 0;
        while (i < view.size) {
            uint64_t chunk = util::chunk32(view.words, view.first + i);
            uint32_t n = std::min<uint32_t>(view.size - i,
                                            util::kBasesPerWord);
            for (uint32_t b = 0; b < n; ++b) {
                sweep.push(static_cast<uint8_t>(chunk & 3u));
                chunk >>= 2;
            }
            i += n;
        }
    }
    return out;
}

namespace {

/**
 * Number of hash shards for the parallel sort.  Fixed (never derived from
 * the thread count): shard membership is hash >> 58, so concatenating the
 * sorted shards in shard order IS the globally sorted entry sequence, for
 * any worker count.
 */
constexpr size_t kHashShards = 64;
constexpr unsigned kShardShift = 58;  // 64 - log2(kHashShards)

/**
 * Smallest power-of-two table size with load factor <= 1/2.  The >= 50%
 * empty guarantee bounds linear probes and is what bindMapped re-checks
 * so a corrupt mapped table can never send lookup() into an endless probe
 * loop.
 */
size_t
bucketTableSize(size_t num_keys)
{
    if (num_keys == 0) {
        return 0;
    }
    size_t size = 2;
    while (size < 2 * num_keys) {
        size *= 2;
    }
    return size;
}

/**
 * Build the open-addressing table over the keys' buckets, given in
 * ascending key order — so the table bytes are a pure function of the
 * key set (container determinism across thread counts).
 */
std::vector<MinimizerBucket>
buildBuckets(const std::vector<MinimizerBucket>& keys)
{
    std::vector<MinimizerBucket> buckets(bucketTableSize(keys.size()));
    const size_t mask = buckets.size() - 1;
    for (const MinimizerBucket& key : keys) {
        size_t slot = key.key & mask;
        while (!buckets[slot].empty()) {
            slot = (slot + 1) & mask;
        }
        buckets[slot] = key;
    }
    return buckets;
}

/** True when a packed position names a base of `graph`. */
bool
insideGraph(const graph::VariationGraph& graph, uint64_t packed)
{
    const graph::Position pos = unpackPosition(packed);
    return graph.hasNode(pos.handle.id()) &&
           pos.offset < graph.length(pos.handle.id());
}

} // namespace

MinimizerIndex::MinimizerIndex(const graph::VariationGraph& graph,
                               const MinimizerParams& params)
    : params_(params)
{
    // Collect (hash, position) pairs from every haplotype path, fanning
    // paths out over the work-stealing scheduler (the paper's lightweight
    // policy).  Each worker writes only its own per-path slot, and the
    // slots are merged in path order, so the entry sequence — and hence
    // the built index — is identical to a serial build.
    const std::vector<graph::PathEntry>& paths = graph.paths();
    std::vector<std::vector<Entry>> per_path(paths.size());
    unsigned threads = params_.buildThreads != 0
                           ? params_.buildThreads
                           : std::max(1u, std::thread::hardware_concurrency());
    threads = std::min<unsigned>(
        threads, static_cast<unsigned>(std::max<size_t>(paths.size(), 1)));
    std::unique_ptr<sched::Scheduler> scheduler;
    if (threads > 1) {
        scheduler = sched::makeScheduler(sched::SchedulerKind::WorkStealing);
        scheduler->run(paths.size(), 1, threads,
                       [&](size_t, size_t begin, size_t end) {
                           for (size_t p = begin; p < end; ++p) {
                               collectPathEntries(graph, paths[p], params_,
                                                  per_path[p]);
                           }
                       });
    } else {
        for (size_t p = 0; p < paths.size(); ++p) {
            collectPathEntries(graph, paths[p], params_, per_path[p]);
        }
    }

    // Distribute into fixed hash shards (top bits), then sort each shard
    // independently — shard concatenation in shard order is the globally
    // (hash, position)-sorted sequence the flatten pass consumes, so the
    // index is identical for every thread count.
    std::vector<std::vector<Entry>> shards(kHashShards);
    {
        std::vector<size_t> shard_sizes(kHashShards, 0);
        for (const std::vector<Entry>& part : per_path) {
            for (const Entry& entry : part) {
                ++shard_sizes[entry.first >> kShardShift];
            }
        }
        for (size_t s = 0; s < kHashShards; ++s) {
            shards[s].reserve(shard_sizes[s]);
        }
        for (std::vector<Entry>& part : per_path) {
            for (const Entry& entry : part) {
                shards[entry.first >> kShardShift].push_back(entry);
            }
            part.clear();
            part.shrink_to_fit();
        }
    }
    auto sort_shard = [&](size_t s) {
        std::vector<Entry>& shard = shards[s];
        std::sort(shard.begin(), shard.end(),
                  [](const auto& a, const auto& b) {
                      if (a.first != b.first) {
                          return a.first < b.first;
                      }
                      return a.second < b.second;
                  });
        shard.erase(std::unique(shard.begin(), shard.end(),
                                [](const auto& a, const auto& b) {
                                    return a.first == b.first &&
                                           a.second == b.second;
                                }),
                    shard.end());
    };
    if (scheduler) {
        scheduler->run(kHashShards, 1, threads,
                       [&](size_t, size_t begin, size_t end) {
                           for (size_t s = begin; s < end; ++s) {
                               sort_shard(s);
                           }
                       });
    } else {
        for (size_t s = 0; s < kHashShards; ++s) {
            sort_shard(s);
        }
    }

    // Flatten in shard order, applying the repeat filter per key (keys
    // never straddle shards: equal hashes share a shard).  A single hit
    // goes inline into its bucket; a key with more pools its positions.
    std::vector<MinimizerBucket> keys;
    auto& positions = positions_.owned();
    for (const std::vector<Entry>& shard : shards) {
        size_t i = 0;
        while (i < shard.size()) {
            size_t j = i;
            while (j < shard.size() && shard[j].first == shard[i].first) {
                ++j;
            }
            if (j - i == 1) {
                keys.push_back(MinimizerBucket{shard[i].first,
                                               shard[i].second});
            } else if (j - i <= params_.maxOccurrences) {
                if (positions.size() > MinimizerBucket::kFirstMask) {
                    util::failSection(
                        util::StatusCode::InvalidArgument,
                        {.section = "min.table"}, "pooled position ",
                        positions.size(),
                        " does not fit the 31-bit bucket index");
                }
                keys.push_back(MinimizerBucket{
                    shard[i].first,
                    uint64_t{j - i} << 32 | MinimizerBucket::kPooled |
                        positions.size()});
                ++pooledKeys_;
                for (size_t e = i; e < j; ++e) {
                    positions.push_back(shard[e].second);
                }
            }
            i = j;
        }
    }
    numKeys_ = keys.size();
    buckets_.adopt(buildBuckets(keys));
}

void
MinimizerIndex::bindMapped(std::shared_ptr<mem::MappedFile> file,
                           const MinimizerParams& params,
                           const graph::VariationGraph& graph,
                           const uint64_t* positions, size_t num_positions,
                           const MinimizerBucket* buckets,
                           size_t num_buckets)
{
    size_t occupied = 0;
    size_t pooled = 0;
    uint64_t covered = 0;
    for (size_t i = 0; i < num_buckets; ++i) {
        const MinimizerBucket& bucket = buckets[i];
        if (bucket.empty()) {
            continue;
        }
        ++occupied;
        if (!bucket.pooled()) {
            // The inline hit is dereferenced by the first seed of its key.
            if (!insideGraph(graph, bucket.value)) {
                util::failSection(
                    util::StatusCode::Corrupt,
                    {.section = "min.table",
                     .offset = i * sizeof(MinimizerBucket)},
                    "bucket ", i,
                    ": inline minimizer position outside the graph");
            }
            continue;
        }
        ++pooled;
        covered += bucket.count();
        if (bucket.count() < 2 ||
            bucket.first() + uint64_t{bucket.count()} > num_positions) {
            util::failSection(util::StatusCode::Corrupt,
                              {.section = "min.table",
                               .offset = i * sizeof(MinimizerBucket)},
                              "bucket ", i, ": pooled span [",
                              bucket.first(), ", +", bucket.count(),
                              ") is not a multi-hit span of min.pos (",
                              num_positions, " positions)");
        }
    }
    // Load factor <= 1/2 is the probe-termination guarantee: with it a
    // lookup always reaches an empty bucket even if contents are garbage.
    if (num_buckets != bucketTableSize(occupied)) {
        util::failSection(util::StatusCode::Corrupt,
                          {.section = "min.table"}, "size ",
                          num_buckets, " does not match ", occupied,
                          " occupied buckets");
    }
    if (covered != num_positions) {
        util::failSection(util::StatusCode::Corrupt,
                          {.section = "min.table"}, "buckets cover ", covered,
                          " positions, min.pos holds ", num_positions);
    }
    for (size_t i = 0; i < num_positions; ++i) {
        if (!insideGraph(graph, positions[i])) {
            util::failSection(util::StatusCode::Corrupt,
                              {.section = "min.pos",
                               .offset = i * sizeof(uint64_t)},
                              "position ", i,
                              ": minimizer position outside the graph");
        }
    }
    params_ = params;
    positions_ = mem::ArenaView<uint64_t>();
    buckets_ = mem::ArenaView<MinimizerBucket>();
    positions_.bind(file, positions, num_positions);
    buckets_.bind(std::move(file), buckets, num_buckets);
    numKeys_ = occupied;
    pooledKeys_ = pooled;
}

} // namespace mg::index
