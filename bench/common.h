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
#include "sim/input_sets.h"
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

/** The two match-run kernels: the SWAR loop the extension walk runs
 *  (util::matchRunPacked) and its per-base scalar oracle
 *  (util::matchRunScalar). */
enum class MatchKernel : uint8_t
{
    Scalar,
    Swar,
};

/** "scalar" | "swar". */
const char* matchKernelName(MatchKernel kernel);

/**
 * Throughput of one match-run kernel on all-match runs of `span` bases,
 * so the kernel streams the whole span.  Start offsets rotate through
 * every intra-word phase, so the shift-carry path runs, not just the
 * aligned case.  Returns bases per tick, the best of `passes` timed
 * passes of ~2M bases each.  A tick is a TSC cycle on x86-64 and a
 * nanosecond elsewhere (matchRunTickUnit()); ratios of two rates are
 * unit-free.
 */
double matchRunRate(MatchKernel kernel, uint32_t span, int passes = 3);

/** "cycle" on x86-64, "ns" elsewhere. */
const char* matchRunTickUnit();

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
