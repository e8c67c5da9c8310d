#include "layers.h"

#include <algorithm>
#include <chrono>

#include "io/gaf.h"
#include "map/cluster.h"
#include "map/seeding.h"

namespace e2e {

namespace {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Opens a span on construction and closes it on destruction. */
class Scope
{
  public:
    Scope(std::vector<Span>& spans, Stage stage, int64_t parent)
        : spans_(spans), index_(static_cast<int64_t>(spans.size()))
    {
        spans_.push_back(Span{ stage, parent, nowNs(), 0 });
    }
    ~Scope() { spans_[static_cast<size_t>(index_)].end = nowNs(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int64_t index() const { return index_; }

  private:
    std::vector<Span>& spans_;
    int64_t index_;
};

uint64_t
duration(const Span& span)
{
    return span.end - span.begin;
}

} // namespace

const char*
stageName(Stage stage)
{
    switch (stage) {
    case Stage::Pass: return "pass";
    case Stage::Read: return "read";
    case Stage::Seed: return "index.findSeeds";
    case Stage::Cluster: return "map.clusterSeeds";
    case Stage::Map: return "map.mapFromSeeds";
    case Stage::Post: return "giraffe.postProcess";
    case Stage::Pair: return "giraffe.pairAlignments";
    case Stage::Rescue: return "giraffe.rescuePairs";
    case Stage::Gaf: return "io.formatGafLine";
    case Stage::Count: break;
    }
    return "?";
}

std::vector<uint64_t>
selfTimes(const std::vector<Span>& spans)
{
    std::vector<uint64_t> child(spans.size(), 0);
    for (const Span& span : spans) {
        if (span.parent >= 0) {
            child[static_cast<size_t>(span.parent)] += duration(span);
        }
    }
    std::vector<uint64_t> self(static_cast<size_t>(Stage::Count), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const uint64_t d = duration(spans[i]);
        self[static_cast<size_t>(spans[i].stage)] +=
            d > child[i] ? d - child[i] : 0;
    }
    return self;
}

std::string
chromeTrace(const std::vector<Span>& spans)
{
    std::string out = "{\"traceEvents\": [";
    const uint64_t origin = spans.empty() ? 0 : spans.front().begin;
    char buf[256];
    for (size_t i = 0; i < spans.size(); ++i) {
        std::snprintf(buf, sizeof buf,
                      "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                      "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}",
                      i ? ", " : "", stageName(spans[i].stage),
                      static_cast<double>(spans[i].begin - origin) / 1e3,
                      static_cast<double>(duration(spans[i])) / 1e3);
        out += buf;
    }
    return out + "]}\n";
}

LayerPass
tracedPass(const mg::io::IndexedPangenome& index,
           const PipelineParams& params, const mg::map::ReadSet& reads)
{
    const mg::map::Mapper mapper(index.graph, index.gbwt, index.minimizers,
                                 index.distance, params.mapper);
    const std::unique_ptr<mg::map::MapperState> state = mapper.makeState();
    LayerPass pass;
    pass.spans.reserve(reads.size() * 5 + 8);
    std::vector<mg::giraffe::Alignment> alignments(reads.size());
    std::vector<mg::map::Cluster> clusters;

    const uint64_t start = nowNs();
    {
        Scope root(pass.spans, Stage::Pass, -1);
        for (size_t i = 0; i < reads.size(); ++i) {
            const mg::map::Read& read = reads.reads[i];
            Scope span(pass.spans, Stage::Read, root.index());
            mg::map::SeedVector seeds;
            {
                Scope s(pass.spans, Stage::Seed, span.index());
                seeds = mg::map::findSeeds(index.minimizers, read,
                                           params.mapper.seeding);
            }
            {
                // Timed alone on the same seeds: mapFromSeeds clusters
                // internally, so extend = mapFromSeeds - this span.
                Scope s(pass.spans, Stage::Cluster, span.index());
                mg::map::clusterSeedsInto(index.graph, index.distance, seeds,
                                          params.mapper.cluster, clusters);
            }
            mg::map::MapResult result;
            {
                Scope s(pass.spans, Stage::Map, span.index());
                result = mapper.mapFromSeeds(read, seeds, *state);
            }
            {
                Scope s(pass.spans, Stage::Post, span.index());
                alignments[i] = mg::giraffe::postProcess(
                    read.name, result.extensions, params.post);
                alignments[i].degraded = result.degraded;
            }
            pass.seeds += seeds.size();
            pass.clustersFormed += result.clustersFormed;
            pass.clustersProcessed += result.clustersProcessed;
            pass.extensionsAttempted += result.extensionsAttempted;
            pass.extensionsKept += result.extensions.size();
        }
        if (params.pairAndRescue && reads.pairedEnd) {
            std::vector<mg::giraffe::PairResult> pairs;
            {
                Scope s(pass.spans, Stage::Pair, root.index());
                pairs = mg::giraffe::pairAlignments(
                    reads, alignments, index.distance, params.pairing);
            }
            mg::giraffe::RescueStats rescue;
            {
                Scope s(pass.spans, Stage::Rescue, root.index());
                rescue = mg::giraffe::rescuePairs(
                    mapper, index.minimizers, index.distance, reads,
                    alignments, pairs, *state, params.pairing, params.post,
                    params.rescue);
            }
            pass.pairs = pairs.size();
            for (const mg::giraffe::PairResult& pair : pairs) {
                pass.properPairs += pair.properPair ? 1 : 0;
            }
            pass.rescueAttempted = rescue.attempted;
            pass.rescued = rescue.rescued;
        }
        {
            Scope s(pass.spans, Stage::Gaf, root.index());
            pass.gaf.reserve(reads.size() * 96);
            for (size_t i = 0; i < reads.size(); ++i) {
                pass.gaf +=
                    mg::io::formatGafLine(alignments[i], reads.reads[i],
                                          index.graph);
                pass.gaf += '\n';
            }
        }
    }
    pass.wallNanos = nowNs() - start;
    pass.reads = reads.size();
    pass.cache = state->totalStats();
    return pass;
}

uint64_t
programNanos(const LayerPass& pass)
{
    const uint64_t cluster =
        selfTimes(pass.spans)[static_cast<size_t>(Stage::Cluster)];
    return pass.wallNanos > cluster ? pass.wallNanos - cluster : 0;
}

void
layerMetrics(const std::vector<LayerPass>& passes, RunResult& result)
{
    // Per-pass stage self times; the median pass (by wall) supplies them.
    std::vector<size_t> order(passes.size());
    for (size_t i = 0; i < order.size(); ++i) {
        order[i] = i;
    }
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return passes[a].wallNanos < passes[b].wallNanos;
    });
    const LayerPass& mid = passes[order[order.size() / 2]];
    const LayerPass& first = passes.front();
    const std::vector<uint64_t> self = selfTimes(mid.spans);
    auto us = [&](Stage stage) {
        return static_cast<double>(self[static_cast<size_t>(stage)]) / 1e3;
    };
    const double reads = static_cast<double>(mid.reads);
    const double cluster_us = us(Stage::Cluster);
    const double extend_us = std::max(0.0, us(Stage::Map) - cluster_us);

    result.set("index.seed_us_per_read", us(Stage::Seed) / reads);
    result.set("index.seeds_per_read",
               static_cast<double>(first.seeds) / reads);
    result.set("map.cluster_us_per_read", cluster_us / reads);
    result.set("map.clusters_processed_frac",
               first.clustersFormed == 0
                   ? 0.0
                   : static_cast<double>(first.clustersProcessed) /
                         static_cast<double>(first.clustersFormed));
    result.set("map.extend_us_per_read", extend_us / reads);
    result.set("map.extend_ns_per_extension",
               mid.extensionsAttempted == 0
                   ? 0.0
                   : extend_us * 1e3 /
                         static_cast<double>(mid.extensionsAttempted));
    result.set("map.extensions_per_read",
               static_cast<double>(first.extensionsAttempted) / reads);
    result.set("map.extension_kept_frac",
               first.extensionsAttempted == 0
                   ? 0.0
                   : static_cast<double>(first.extensionsKept) /
                         static_cast<double>(first.extensionsAttempted));
    result.set("gbwt.lookups_per_read",
               static_cast<double>(first.cache.lookups) / reads);
    result.set("gbwt.cache_hit_frac", first.cache.hitRate());
    result.set("gbwt.decodes_per_read",
               static_cast<double>(first.cache.decodes) / reads);
    result.set("giraffe.post_us_per_read", us(Stage::Post) / reads);
    result.set("io.gaf_us_per_read", us(Stage::Gaf) / reads);
    result.set("giraffe.pair_ms", us(Stage::Pair) / 1e3);
    result.set("giraffe.proper_pair_frac",
               first.pairs == 0 ? 0.0
                                : static_cast<double>(first.properPairs) /
                                      static_cast<double>(first.pairs));
    result.set("giraffe.rescue_attempted",
               static_cast<double>(first.rescueAttempted));
    result.set("giraffe.rescue_success_frac",
               first.rescueAttempted == 0
                   ? 0.0
                   : static_cast<double>(first.rescued) /
                         static_cast<double>(first.rescueAttempted));

    // Reconciliation: stage self times (seed + mapFromSeeds + post + pair
    // + rescue + gaf) against the pass wall net of the benchmark's own
    // extra clusterSeeds call; the rest is loop and timer overhead.
    const double program_us = static_cast<double>(programNanos(mid)) / 1e3;
    const double stages_us = us(Stage::Seed) + us(Stage::Map) +
                             us(Stage::Post) + us(Stage::Pair) +
                             us(Stage::Rescue) + us(Stage::Gaf);
    result.set("trace.unattributed_frac",
               program_us <= 0.0 ? 0.0 : 1.0 - stages_us / program_us);
    result.set("trace.read_us", program_us / reads);
}

} // namespace e2e
