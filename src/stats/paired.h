/**
 * @file
 * Paired A/B measurement: the one method behind every perf guard and
 * BENCH record.  Two cost functions, each timing one pass of its side,
 * run in alternating order round after round.  Drift in machine speed
 * (steal time on a VM, a frequency change, a neighbour's load) lands on
 * both halves of a round alike and cancels out of that round's ratio, and
 * the median of the per-round ratios ignores the rounds where it did not.
 * Fine interleaving is what makes this work: a few coarse rounds of many
 * passes each average the drift into every round instead of cancelling it.
 * What it cannot cancel is load that slows the two sides unequally, as a
 * busy neighbour on a shared core does to two different kernels.
 */
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "stats/bootstrap.h"

namespace mg::stats {

/** The outcome of pairedRatio(). */
struct PairedRatio
{
    /** Per-round baseline cost / candidate cost: above 1 the candidate is
     *  faster, so a throughput ratio reads directly. */
    std::vector<double> ratios;
    /** Median of `ratios` (pointEstimate) and its 95% percentile
     *  bootstrap interval. */
    ConfidenceInterval ratio;
    /** Median cost of one pass of each side, with the same interval. */
    ConfidenceInterval baselineCost;
    ConfidenceInterval candidateCost;

    size_t rounds() const { return ratios.size(); }
    double median() const { return ratio.pointEstimate; }
};

/**
 * Run `rounds` rounds of one baseline pass and one candidate pass,
 * baseline first in even rounds and candidate first in odd ones.  Each
 * callable returns the cost of the one pass it ran (seconds or ticks; the
 * two sides must use the same unit).  Throws util::Error for fewer than
 * two rounds or a cost that is not positive.
 */
PairedRatio pairedRatio(size_t rounds,
                        const std::function<double()>& baselineCost,
                        const std::function<double()>& candidateCost);

} // namespace mg::stats
