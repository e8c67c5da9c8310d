#include "giraffe/parent.h"

namespace mg::giraffe {

ParentEmulator::ParentEmulator(const graph::VariationGraph& graph,
                               const gbwt::Gbwt& gbwt,
                               const index::MinimizerIndex& minimizers,
                               const index::DistanceIndex& distance,
                               ParentParams params)
    : minimizers_(minimizers), distance_(distance), params_(params),
      mapper_(graph, gbwt, minimizers, distance, params.mapper)
{}

ParentOutputs
ParentEmulator::run(const map::ReadSet& reads, perf::Profiler* profiler,
                    util::MemTracer* tracer, obs::Hub* hub) const
{
    ParentOutputs outputs;
    const size_t n = reads.size();
    outputs.alignments.resize(n);
    outputs.extensions.resize(n);

    BatchRun run(mapper_, params_, profiler, tracer, hub);
    run.mapReads(
        n,
        [&](map::MapperState& state, size_t i) {
            outputs.alignments[i] =
                alignRead(mapper_, params_.post, reads.reads[i], state,
                          &outputs.extensions[i], nullptr);
        },
        [&](size_t i) {
            outputs.alignments[i] = Alignment{};
            outputs.alignments[i].readName = reads.reads[i].name;
            outputs.extensions[i] = {};
            outputs.extensions[i].readName = reads.reads[i].name;
        },
        outputs);

    // Paired-end workflow: the pairing stage runs after both mates of
    // every fragment are mapped (input sets C and D of the paper), and
    // mate rescue re-places the weak mate of non-proper pairs.
    if (reads.pairedEnd) {
        outputs.pairs = pairAlignments(reads, outputs.alignments,
                                       distance_, params_.pairing);
        if (params_.mateRescue) {
            map::MapperState& state = run.state(0);
            outputs.rescue = rescuePairs(
                mapper_, minimizers_, distance_, reads, outputs.alignments,
                outputs.pairs, state, params_.pairing, params_.post,
                params_.rescue);
            state.tally[obs::MapCount::RescueAttempts] +=
                outputs.rescue.attempted;
            state.tally[obs::MapCount::RescueHits] += outputs.rescue.rescued;
        }
    }
    run.finish(outputs);
    return outputs;
}

io::SeedCapture
ParentEmulator::capturePreprocessing(const map::ReadSet& reads) const
{
    io::SeedCapture capture;
    capture.pairedEnd = reads.pairedEnd;
    capture.entries.reserve(reads.size());
    for (const map::Read& read : reads.reads) {
        io::ReadWithSeeds entry;
        entry.read = read;
        entry.seeds =
            map::findSeeds(minimizers_, read, params_.mapper.seeding);
        capture.entries.push_back(std::move(entry));
    }
    return capture;
}

} // namespace mg::giraffe
