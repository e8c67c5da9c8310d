/**
 * @file
 * Quickstart: the whole miniGiraffe stack in one small program.
 *
 *   1. Generate a toy pangenome (population model) and index it (GBWT,
 *      minimizers, distance index).
 *   2. Save it as an MGZ container and map it back in.
 *   3. Simulate a handful of short reads.
 *   4. Map them with the full parent pipeline and print the alignments.
 *
 * Run:  ./examples/quickstart [--reads N] [--seed S]
 */
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "giraffe/parent.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/file.h"
#include "io/mgz.h"
#include "sim/pangenome_gen.h"
#include "sim/read_sim.h"
#include "util/flags.h"

int
main(int argc, char** argv)
{
    mg::util::Flags flags("quickstart");
    flags.define("reads", "12", "number of reads to simulate and map")
         .define("seed", "42", "generation seed")
         .define("mgz", "",
                 "keep the MGZ container at this path (default: a "
                 "temporary file, removed after loading)");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }

    // 1. A small pangenome: ~20 kb backbone, 8 haplotypes.
    mg::sim::PangenomeParams pparams;
    pparams.seed = static_cast<uint64_t>(flags.integer("seed"));
    pparams.backboneLength = 20000;
    pparams.haplotypes = 8;
    mg::sim::GeneratedPangenome pg = mg::sim::generatePangenome(pparams);
    std::printf("pangenome: %zu nodes, %zu edges, %zu haplotypes, "
                "%zu graph bases\n",
                pg.graph.numNodes(), pg.graph.numEdges(),
                pg.graph.numPaths(), pg.graph.totalSequenceLength());

    // 2. Index it and round-trip through the MGZ container (the GBZ
    //    stand-in): one file, memory-mapped back with every index built.
    mg::index::MinimizerIndex minimizers(pg.graph,
                                         mg::index::MinimizerParams());
    mg::index::DistanceIndex distance(pg.graph);
    std::vector<uint8_t> mgz =
        mg::io::encodeMgz3(pg.graph, pg.gbwt, minimizers, distance);
    const bool keep = !flags.str("mgz").empty();
    const std::string path =
        keep ? flags.str("mgz")
             : (std::filesystem::temp_directory_path() /
                ("quickstart_" + std::to_string(::getpid()) + ".mgz3"))
                   .string();
    mg::io::writeFileBytes(path, mgz);
    mg::io::IndexedPangenome loaded = mg::io::loadPangenome(path);
    if (keep) {
        std::printf("saved to %s\n", path.c_str());
    } else {
        std::filesystem::remove(path); // the mapping outlives the name
    }
    std::printf("mgz container: %zu bytes, mapped in %.4f s; minimizer "
                "index: %zu keys, %zu entries\n",
                mgz.size(), loaded.info.loadSeconds,
                loaded.minimizers.numKeys(), loaded.minimizers.numEntries());

    // 4. Simulate reads from the *generated* haplotypes and map them
    //    against the *loaded* pangenome.
    mg::sim::ReadSimParams rparams;
    rparams.seed = pparams.seed + 1;
    rparams.count = static_cast<size_t>(flags.integer("reads"));
    rparams.readLength = 120;
    rparams.errorRate = 0.01;
    mg::map::ReadSet reads = mg::sim::simulateReads(pg, rparams);

    mg::giraffe::ParentParams gparams;
    mg::giraffe::ParentEmulator giraffe(loaded.graph, loaded.gbwt,
                                        loaded.minimizers, loaded.distance,
                                        gparams);
    mg::giraffe::ParentOutputs outputs = giraffe.run(reads);

    std::printf("\n%-10s %-6s %-7s %-5s %-6s %s\n", "read", "mapped",
                "strand", "score", "mapq", "path");
    for (const mg::giraffe::Alignment& alignment : outputs.alignments) {
        if (!alignment.mapped) {
            std::printf("%-10s no\n", alignment.readName.c_str());
            continue;
        }
        std::string path;
        for (mg::graph::Handle step : alignment.path) {
            path += step.str() + " ";
        }
        std::printf("%-10s yes    %-7s %-5d %-6d %s\n",
                    alignment.readName.c_str(),
                    alignment.onReverseRead ? "-" : "+", alignment.score,
                    alignment.mappingQuality, path.c_str());
    }
    std::printf("\nmapped %zu reads in %.3f s; GBWT cache hit rate %.3f\n",
                reads.size(), outputs.wallSeconds,
                outputs.tally.cache().hitRate());
    return 0;
}
