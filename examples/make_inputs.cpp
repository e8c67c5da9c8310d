/**
 * @file
 * Input-set builder: materializes one of the paper's four input-set
 * analogs (Table III) as on-disk artifacts, mirroring the paper's
 * "generate new input sets" workflow:
 *
 *   <name>.mgz3          the pangenome container (graph + GBWT +
 *                        minimizer and distance indexes), memory-mapped
 *                        by every consumer
 *   <name>.seeds.bin     the preprocessing capture (reads + seeds),
 *                        i.e. miniGiraffe's input
 *   <name>.expected.ext  the parent's critical-function output, used by
 *                        validate_proxy
 *
 * With --gfa it also exports the graph as GFA 1.0 for vg/odgi/Bandage,
 * with each haplotype as a P line (the container stores no graph paths,
 * so this is the one place they are written out).
 *
 * Run:  ./examples/make_inputs --input-set A-human --scale 0.1 --out-dir .
 *       [--gfa A-human.gfa]
 */
#include <cstdio>

#include "giraffe/parent.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/extensions_io.h"
#include "io/fastq.h"
#include "io/gfa.h"
#include "io/mgz.h"
#include "io/reads_bin.h"
#include "sim/input_sets.h"
#include "util/flags.h"
#include "util/timer.h"

int
main(int argc, char** argv)
try {
    mg::util::Flags flags("make_inputs");
    flags.define("input-set", "A-human",
                 "A-human | B-yeast | C-HPRC | D-HPRC")
         .define("scale", "0.1", "read-count multiplier")
         .define("out-dir", ".", "output directory")
         .define("gfa", "",
                 "also export the graph with its haplotype paths as GFA 1.0 "
                 "to this path");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }

    std::string name = flags.str("input-set");
    mg::util::WallTimer timer;
    mg::sim::InputSet set = mg::sim::buildInputSet(
        mg::sim::inputSetSpec(name), flags.real("scale"));
    std::printf("built %s: %zu nodes, %zu reads (%.2f s)\n", name.c_str(),
                set.pangenome.graph.numNodes(), set.reads.size(),
                timer.seconds());

    std::string base = flags.str("out-dir") + "/" + name;
    mg::index::MinimizerIndex minimizers(set.pangenome.graph,
                                         mg::index::MinimizerParams());
    mg::index::DistanceIndex distance(set.pangenome.graph);
    mg::io::saveMgz3(base + ".mgz3", set.pangenome.graph, set.pangenome.gbwt,
                     minimizers, distance);
    mg::io::saveFastq(base + ".fastq", set.reads);
    if (!flags.str("gfa").empty()) {
        mg::io::saveGfa(flags.str("gfa"), set.pangenome.graph);
        std::printf("wrote GFA (%zu haplotype paths) to %s\n",
                    set.pangenome.graph.numPaths(), flags.str("gfa").c_str());
    }

    mg::giraffe::ParentEmulator parent(set.pangenome.graph,
                                       set.pangenome.gbwt, minimizers,
                                       distance,
                                       mg::giraffe::ParentParams());

    timer.reset();
    mg::io::SeedCapture capture = parent.capturePreprocessing(set.reads);
    mg::io::saveSeedCapture(base + ".seeds.bin", capture);
    std::printf("captured seeds for %zu reads (%.2f s)\n",
                capture.entries.size(), timer.seconds());

    timer.reset();
    mg::giraffe::ParentOutputs outputs = parent.run(set.reads);
    mg::io::saveExtensions(base + ".expected.ext", outputs.extensions);
    std::printf("parent mapping done (%.2f s); wrote:\n  %s.mgz3\n"
                "  %s.fastq\n  %s.seeds.bin\n  %s.expected.ext\n",
                timer.seconds(), base.c_str(), base.c_str(), base.c_str(),
                base.c_str());
    return 0;
} catch (const mg::util::Error& e) {
    std::fprintf(stderr, "make_inputs: %s\n", e.what());
    return 1;
}
