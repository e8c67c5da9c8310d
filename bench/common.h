/**
 * @file
 * Shared infrastructure for the benchmark harnesses.  Each harness
 * regenerates one table or figure of the paper (see DESIGN.md's
 * experiment index): it builds the relevant input-set analogs, runs the
 * pipelines, and prints the same rows/series the paper reports — plus an
 * optional CSV for scripting.  A --scale flag shrinks or grows every
 * workload uniformly.
 */
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "giraffe/parent.h"
#include "giraffe/proxy.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "machine/config.h"
#include "obs/json.h"
#include "sim/input_sets.h"
#include "stats/paired.h"
#include "tune/autotuner.h"
#include "util/flags.h"

namespace mg::bench {

/** One fully built world: input set plus every index and both pipelines. */
struct World
{
    sim::InputSet set;
    index::MinimizerIndex minimizers;
    index::DistanceIndex distance;

    const graph::VariationGraph& graph() const
    {
        return set.pangenome.graph;
    }
    const gbwt::Gbwt& gbwt() const { return set.pangenome.gbwt; }

    giraffe::ParentEmulator
    parent(giraffe::ParentParams params = giraffe::ParentParams()) const
    {
        return giraffe::ParentEmulator(graph(), gbwt(), minimizers,
                                       distance, params);
    }

    giraffe::ProxyRunner
    proxy(giraffe::ProxyParams params = giraffe::ProxyParams()) const
    {
        return giraffe::ProxyRunner(graph(), gbwt(), distance, params);
    }
};

/** Build one input-set analog with all indexes. */
std::unique_ptr<World> buildWorld(const std::string& input_set,
                                  double scale);

/** Build all four input-set analogs. */
std::vector<std::unique_ptr<World>> buildAllWorlds(double scale);

/** Standard bench flags: --scale plus an optional --csv output path. */
util::Flags benchFlags(const std::string& program,
                       const std::string& default_scale = "1.0");

/** Print the harness banner (paper artifact, experiment id). */
void banner(const std::string& experiment, const std::string& what);

/**
 * The measured source tree's commit (`git describe --always --dirty`, run
 * in the working directory), or "unknown" outside a git checkout.  BENCH
 * records carry it so a number can be traced to the code it measured.
 */
std::string sourceCommit();

/**
 * The match-run kernels: the SWAR loop the extension walk runs
 * (util::matchRunPacked), its per-base scalar oracle
 * (util::matchRunScalar), and a frozen copy of the SWAR loop, the
 * baseline perf_guard_hotpath holds the production loop to.  A busy
 * neighbour on a shared core slows the SWAR and scalar loops unequally
 * (the SWAR/scalar ratio drops by up to a third for seconds at a time),
 * but slows two copies of one loop alike.
 */
enum class MatchKernel : uint8_t
{
    Scalar,
    Swar,
    SwarReference,
};

/**
 * Ticks of one timed pass of one match-run kernel: matchRunBases(span)
 * bases of all-match runs of `span` bases, so the kernel streams the
 * whole span.  Start offsets rotate through every intra-word phase, so
 * the shift-carry path runs, not just the aligned case.  A tick is a TSC
 * cycle on x86-64 and a nanosecond elsewhere (matchRunTickUnit()); ratios
 * of two costs are unit-free.
 */
double matchRunTicks(MatchKernel kernel, uint32_t span);

/** Bases one matchRunTicks() pass streams at `span` (about 2M). */
double matchRunBases(uint32_t span);

/** "cycle" on x86-64, "ns" elsewhere. */
const char* matchRunTickUnit();

/**
 * How every perf guard and BENCH record estimate is measured; the
 * records' `method` text.
 */
extern const char* const kPairedMethod;

/**
 * Write `"key": {"median": m, "ci": [lo, hi], "rounds": n}`, the one
 * shape every BENCH record estimate takes.
 */
void writeEstimate(obs::JsonWriter& w, const std::string& key,
                   const stats::ConfidenceInterval& estimate,
                   size_t rounds);

/** "median 0.9953 (95% CI 0.9921-0.9987, 201 rounds)". */
std::string describe(const stats::PairedRatio& pair);

/** The rate `work / cost` of a cost estimate; the interval flips. */
stats::ConfidenceInterval rateOf(double work,
                                 const stats::ConfidenceInterval& cost);

/** Thread counts used for scaling curves: 1..max in powers of two. */
std::vector<size_t> threadSweep(size_t max_threads);

/**
 * Peak resident memory (GB) each *paper-scale* input set needs during
 * mapping, taken from the paper's reported behaviour: the smallest input
 * needs 32 GB (artifact appendix) and D-HPRC exceeded the 256 GB machines
 * (Section VII-A).  Used to reproduce the "ran out of memory" cells of
 * Figure 5 / Table VII.
 */
double paperMemoryRequirementGb(const std::string& input_set);

/** True iff the paper-scale input fits in the machine's DRAM. */
bool fitsInMemory(const machine::MachineConfig& machine,
                  const std::string& input_set);

/** Read counts of the paper's Table III (millions of reads, full scale). */
uint64_t paperReadCount(const std::string& input_set);

/**
 * Project a measured per-read profile to the paper's input scale: the
 * paper's figures/tables are taken at full (or 10%-subsampled) input
 * sizes, so the model's work terms are scaled from our laptop-size
 * measurement to the Table III read counts.  Cache *rates* stay as
 * measured; only volumes scale.
 */
tune::CapacityProfile scaleProfileToPaper(const tune::CapacityProfile& p,
                                          const std::string& input_set,
                                          double subsample = 1.0);

} // namespace mg::bench
