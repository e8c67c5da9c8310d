#include "giraffe/rescue.h"

#include <algorithm>
#include <cmath>

#include "map/seeding.h"
#include "util/common.h"

namespace mg::giraffe {

namespace {

int64_t
alignmentCoordinate(const Alignment& alignment,
                    const index::DistanceIndex& distance)
{
    graph::Position pos;
    pos.handle = alignment.path.front();
    pos.offset = alignment.startOffset;
    return distance.chainCoordinate(pos);
}

} // namespace

RescueStats
rescuePairs(const map::Mapper& mapper,
            const index::MinimizerIndex& minimizers,
            const index::DistanceIndex& distance,
            const map::ReadSet& reads, std::vector<Alignment>& alignments,
            std::vector<PairResult>& pairs, map::MapperState& state,
            const PairingParams& pairing, const PostProcessParams& post,
            const RescueParams& params)
{
    FragmentModel model =
        estimateFragmentModel(reads, alignments, distance, pairing);
    double window = model.mean + params.windowSigmas * model.stdev;
    double frag_lo = model.mean - pairing.fragmentSigmas * model.stdev;
    double frag_hi = model.mean + pairing.fragmentSigmas * model.stdev;

    RescueStats stats;
    // One windowed-seed buffer for every attempt; the target's seeds land
    // in the worker's seed buffer.
    map::SeedVector windowed;
    for (PairResult& pair : pairs) {
        if (pair.properPair) {
            continue;
        }
        const Alignment& first = alignments[pair.firstRead];
        const Alignment& second = alignments[pair.secondRead];
        if (!first.mapped && !second.mapped) {
            continue; // no anchor to rescue from
        }

        // Anchor = the confident mate; target = the one to re-place.
        size_t anchor_index;
        size_t target_index;
        if (first.mapped != second.mapped) {
            anchor_index = first.mapped ? pair.firstRead : pair.secondRead;
            target_index = first.mapped ? pair.secondRead : pair.firstRead;
        } else {
            bool first_weaker =
                first.mappingQuality <= second.mappingQuality;
            anchor_index = first_weaker ? pair.secondRead : pair.firstRead;
            target_index = first_weaker ? pair.firstRead : pair.secondRead;
        }
        const Alignment& anchor = alignments[anchor_index];
        const map::Read& target_read = reads.reads[target_index];
        ++stats.attempted;
        // Each attempt claims its own flight slot, named by the target
        // read, so a report never shows a finished read back in a stage.
        if (state.flight != nullptr) {
            state.flight->begin(target_index);
            state.flight->stage(obs::ReadStage::Rescue);
        }
        const bool rescued = [&] {
            // Window filter: the target must sit within a plausible
            // fragment of the anchor, on the opposite strand.
            int64_t anchor_coord = alignmentCoordinate(anchor, distance);
            bool want_reverse = !anchor.onReverseRead;
            map::findSeedsInto(minimizers, target_read,
                               mapper.params().seeding, state.seeds,
                               state.tracer);
            windowed.clear();
            for (const map::Seed& seed : state.seeds) {
                if (seed.onReverseRead != want_reverse) {
                    continue;
                }
                int64_t coord = distance.chainCoordinate(seed.position) -
                                static_cast<int64_t>(seed.readOffset);
                if (std::llabs(coord - anchor_coord) <=
                    static_cast<int64_t>(window)) {
                    windowed.push_back(seed);
                }
            }
            if (windowed.empty() ||
                windowed.size() > params.maxWindowSeeds) {
                return false;
            }

            state.readIndex = target_index;
            map::MapResult result =
                mapper.mapFromSeeds(target_read, windowed, state);
            Alignment candidate =
                postProcess(target_read.name, result.extensions, post);
            if (!candidate.mapped) {
                return false;
            }

            // Accept only if the rescued placement completes a proper
            // pair.
            const Alignment& fwd =
                candidate.onReverseRead ? anchor : candidate;
            const Alignment& rev =
                candidate.onReverseRead ? candidate : anchor;
            if (fwd.onReverseRead || !rev.onReverseRead) {
                return false;
            }
            int64_t fragment =
                alignmentCoordinate(rev, distance) +
                static_cast<int64_t>(rev.length()) -
                alignmentCoordinate(fwd, distance);
            if (fragment <= 0 ||
                static_cast<double>(fragment) < frag_lo ||
                static_cast<double>(fragment) > frag_hi) {
                return false;
            }

            alignments[target_index] = candidate;
            pair.bothMapped = true;
            pair.properPair = true;
            pair.observedFragment = fragment;
            auto boost = [&](Alignment& alignment) {
                int mapq =
                    alignment.mappingQuality + pairing.properPairBonus;
                alignment.mappingQuality =
                    static_cast<uint8_t>(std::min(mapq, 60));
            };
            boost(alignments[pair.firstRead]);
            boost(alignments[pair.secondRead]);
            return true;
        }();
        if (state.flight != nullptr) {
            state.flight->done();
        }
        stats.rescued += rescued ? 1 : 0;
    }
    return stats;
}

} // namespace mg::giraffe
