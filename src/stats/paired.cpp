#include "stats/paired.h"

#include "stats/descriptive.h"
#include "util/common.h"

namespace mg::stats {

namespace {

ConfidenceInterval
medianWithInterval(const std::vector<double>& sample)
{
    return bootstrapCi(sample, [](const std::vector<double>& xs) {
        return median(xs);
    });
}

} // namespace

PairedRatio
pairedRatio(size_t rounds, const std::function<double()>& baselineCost,
            const std::function<double()>& candidateCost)
{
    MG_CHECK(rounds >= 2, "a paired measurement needs at least two rounds");
    std::vector<double> baseline;
    std::vector<double> candidate;
    PairedRatio out;
    baseline.reserve(rounds);
    candidate.reserve(rounds);
    out.ratios.reserve(rounds);
    for (size_t round = 0; round < rounds; ++round) {
        double base = 0.0;
        double cand = 0.0;
        if (round % 2 == 0) {
            base = baselineCost();
            cand = candidateCost();
        } else {
            cand = candidateCost();
            base = baselineCost();
        }
        MG_CHECK(base > 0.0 && cand > 0.0, "round ", round,
                 " measured a pass cost of ", base, " (baseline) and ",
                 cand, " (candidate); costs must be positive");
        baseline.push_back(base);
        candidate.push_back(cand);
        out.ratios.push_back(base / cand);
    }
    out.ratio = medianWithInterval(out.ratios);
    out.baselineCost = medianWithInterval(baseline);
    out.candidateCost = medianWithInterval(candidate);
    return out;
}

} // namespace mg::stats
