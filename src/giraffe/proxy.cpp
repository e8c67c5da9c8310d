#include "giraffe/proxy.h"

namespace mg::giraffe {

ProxyRunner::ProxyRunner(const graph::VariationGraph& graph,
                         const gbwt::Gbwt& gbwt,
                         const index::DistanceIndex& distance,
                         ProxyParams params)
    : params_(params),
      mapper_(graph, gbwt, emptyMinimizers_, distance, params.mapper)
{}

ProxyOutputs
ProxyRunner::run(const io::SeedCapture& capture, perf::Profiler* profiler,
                 util::MemTracer* tracer, obs::Hub* hub) const
{
    ProxyOutputs outputs;
    const size_t n = capture.entries.size();
    outputs.extensions.resize(n);

    // The mapping loop: nested iteration over reads and their seeds, the
    // outer loop parallelized by the selected scheduler (Section V).
    BatchRun run(mapper_, params_, profiler, tracer, hub);
    outputs.readsMapped = run.mapReads(
        n,
        [&](map::MapperState& state, size_t i) {
            const io::ReadWithSeeds& entry = capture.entries[i];
            map::MapResult result =
                mapper_.mapFromSeeds(entry.read, entry.seeds, state);
            outputs.extensions[i].readName = entry.read.name;
            outputs.extensions[i].extensions = std::move(result.extensions);
        },
        // The dump keeps one named record per read, so the functional
        // validation sees an unmapped read as missing, not absent.
        [&](size_t i) {
            outputs.extensions[i] = {};
            outputs.extensions[i].readName = capture.entries[i].read.name;
        },
        outputs);
    run.finish(outputs);
    return outputs;
}

} // namespace mg::giraffe
