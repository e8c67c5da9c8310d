/**
 * @file
 * Functional validation (paper Section VI-a): run the parent emulator and
 * the proxy independently on the same input set and assert the two-way
 * property — (1) every expected extension appears in the proxy output and
 * (2) the proxy produces nothing extra.  The paper reports a 100% match;
 * so does this reproduction.
 *
 * Run:  ./examples/validate_proxy [--input-set A-human] [--scale 0.05]
 * Or against files produced by make_inputs:
 *       ./examples/validate_proxy <graph.mgz3> <seeds.bin> <expected.ext>
 */
#include <cstdio>

#include "giraffe/parent.h"
#include "giraffe/proxy.h"
#include "index/distance.h"
#include "index/minimizer.h"
#include "io/extensions_io.h"
#include "io/mgz.h"
#include "sim/input_sets.h"
#include "util/flags.h"

namespace {

int
report(const mg::io::ValidationReport& report)
{
    std::printf("reads compared:        %zu\n", report.readsCompared);
    std::printf("expected extensions:   %zu\n", report.extensionsExpected);
    std::printf("proxy extensions:      %zu\n", report.extensionsFound);
    std::printf("missing (1st check):   %zu\n", report.missing);
    std::printf("unexpected (2nd check):%zu\n", report.unexpected);
    if (report.perfectMatch()) {
        std::printf("VALIDATION PASSED: 100%% match between proxy and "
                    "parent outputs\n");
        return 0;
    }
    std::printf("VALIDATION FAILED\n");
    return 1;
}

} // namespace

int
main(int argc, char** argv)
try {
    mg::util::Flags flags("validate_proxy");
    flags.define("input-set", "A-human",
                 "input set analog to validate on")
         .define("scale", "0.05", "read-count multiplier");
    if (!flags.parse(argc - 1, argv + 1)) {
        return 0;
    }

    if (flags.positional().size() == 3) {
        // File mode: parent output was exported earlier by make_inputs.
        mg::io::IndexedPangenome pangenome =
            mg::io::loadPangenome(flags.positional()[0]);
        mg::io::SeedCapture capture =
            mg::io::loadSeedCapture(flags.positional()[1]);
        auto expected = mg::io::loadExtensions(flags.positional()[2]);
        mg::giraffe::ProxyRunner proxy(pangenome.graph, pangenome.gbwt,
                                       pangenome.distance,
                                       mg::giraffe::ProxyParams());
        mg::giraffe::ProxyOutputs outputs = proxy.run(capture);
        return report(
            mg::io::validateExtensions(expected, outputs.extensions));
    }

    // Self-contained mode: build the input set in memory.
    std::string name = flags.str("input-set");
    std::printf("building input set %s (scale %.3f)...\n", name.c_str(),
                flags.real("scale"));
    mg::sim::InputSet set = mg::sim::buildInputSet(
        mg::sim::inputSetSpec(name), flags.real("scale"));

    mg::index::MinimizerParams mparams;
    mparams.k = 15;
    mparams.w = 8;
    mg::index::MinimizerIndex minimizers(set.pangenome.graph, mparams);
    mg::index::DistanceIndex distance(set.pangenome.graph);

    mg::giraffe::ParentEmulator parent(set.pangenome.graph,
                                       set.pangenome.gbwt, minimizers,
                                       distance,
                                       mg::giraffe::ParentParams());
    std::printf("running parent (full pipeline)...\n");
    mg::giraffe::ParentOutputs parent_out = parent.run(set.reads);
    mg::io::SeedCapture capture = parent.capturePreprocessing(set.reads);

    std::printf("running proxy (critical functions only)...\n");
    mg::giraffe::ProxyRunner proxy(set.pangenome.graph, set.pangenome.gbwt,
                                   distance, mg::giraffe::ProxyParams());
    mg::giraffe::ProxyOutputs proxy_out = proxy.run(capture);

    return report(mg::io::validateExtensions(parent_out.extensions,
                                             proxy_out.extensions));
} catch (const mg::util::Error& e) {
    std::fprintf(stderr, "validate_proxy: %s\n", e.what());
    return 1;
}
