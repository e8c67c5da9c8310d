/**
 * @file
 * The outside-in traced pass: the benchmark drives each layer's public
 * functions itself (findSeeds, clusterSeeds, Mapper::mapFromSeeds,
 * postProcess, pairAlignments, rescuePairs, formatGafLine) on one thread
 * and records a span around every call.  Spans stay in memory; a layer's
 * self time is its span minus its child spans.  The pass's GAF must be
 * byte-identical to what the program itself produces for the same reads,
 * otherwise the per-layer numbers describe a different program.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "giraffe/alignment.h"
#include "giraffe/pairing.h"
#include "giraffe/rescue.h"
#include "io/mgz.h"
#include "map/mapper.h"

namespace e2e {

/** Span stages, in the order they appear in the trace file. */
enum class Stage : uint8_t
{
    Pass,
    Read,
    Seed,
    Cluster,
    Map,
    Post,
    Pair,
    Rescue,
    Gaf,
    Count,
};

const char* stageName(Stage stage);

/** One timed call; parent is an index into the span vector (or -1). */
struct Span
{
    Stage stage = Stage::Pass;
    int64_t parent = -1;
    uint64_t begin = 0;
    uint64_t end = 0;
};

/** Per-stage self nanoseconds over a span list (self = duration minus
 *  the duration of direct children). */
std::vector<uint64_t> selfTimes(const std::vector<Span>& spans);

/** Chrome-trace JSON of a span list (one track). */
std::string chromeTrace(const std::vector<Span>& spans);

/** The configuration every mapping path in the benchmark shares. */
struct PipelineParams
{
    mg::map::MapperParams mapper;
    mg::giraffe::PostProcessParams post;
    mg::giraffe::PairingParams pairing;
    mg::giraffe::RescueParams rescue;
    /** Pair and rescue (paired read sets only). */
    bool pairAndRescue = false;
};

/** What one traced pass measured. */
struct LayerPass
{
    std::vector<Span> spans;
    uint64_t wallNanos = 0;
    uint64_t reads = 0;
    uint64_t seeds = 0;
    uint64_t clustersFormed = 0;
    uint64_t clustersProcessed = 0;
    uint64_t extensionsAttempted = 0;
    uint64_t extensionsKept = 0;
    mg::gbwt::CacheStats cache;
    uint64_t pairs = 0;
    uint64_t properPairs = 0;
    uint64_t rescueAttempted = 0;
    uint64_t rescued = 0;
    /** The GAF the pass produced (one line per read). */
    std::string gaf;
};

/** A pass's wall time net of the benchmark's own extra clusterSeeds
 *  calls (their self time), i.e. the time the program itself would
 *  spend on the pass plus the tracing cost. */
uint64_t programNanos(const LayerPass& pass);

/** Run one traced single-thread pass over `reads`. */
LayerPass tracedPass(const mg::io::IndexedPangenome& index,
                     const PipelineParams& params,
                     const mg::map::ReadSet& reads);

/**
 * Fold traced passes into the index/map/gbwt/giraffe/io per-layer
 * metrics plus trace.unattributed_frac (stage self times against the
 * traced wall, net of the benchmark's own extra clusterSeeds call).
 * Uses the median pass for timings; counts come from the first pass.
 */
void layerMetrics(const std::vector<LayerPass>& passes, RunResult& result);

} // namespace e2e
