#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "util/common.h"

namespace mg::stats {

double
mean(const std::vector<double>& xs)
{
    if (xs.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (double x : xs) {
        sum += x;
    }
    return sum / static_cast<double>(xs.size());
}

double
variance(const std::vector<double>& xs)
{
    if (xs.size() < 2) {
        return 0.0;
    }
    double m = mean(xs);
    double acc = 0.0;
    for (double x : xs) {
        acc += (x - m) * (x - m);
    }
    return acc / static_cast<double>(xs.size());
}

double
stdev(const std::vector<double>& xs)
{
    return std::sqrt(variance(xs));
}

double
geomean(const std::vector<double>& xs)
{
    MG_ASSERT(!xs.empty());
    double logsum = 0.0;
    for (double x : xs) {
        MG_ASSERT(x > 0.0);
        logsum += std::log(x);
    }
    return std::exp(logsum / static_cast<double>(xs.size()));
}

double
median(std::vector<double> xs)
{
    if (xs.empty()) {
        return 0.0;
    }
    const size_t mid = xs.size() / 2;
    std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
    const double upper = xs[mid];
    if (xs.size() % 2 == 1) {
        return upper;
    }
    return 0.5 * (upper + *std::max_element(xs.begin(), xs.begin() + mid));
}

double
minOf(const std::vector<double>& xs)
{
    MG_ASSERT(!xs.empty());
    return *std::min_element(xs.begin(), xs.end());
}

double
maxOf(const std::vector<double>& xs)
{
    MG_ASSERT(!xs.empty());
    return *std::max_element(xs.begin(), xs.end());
}

double
cosineSimilarity(const std::vector<double>& a, const std::vector<double>& b)
{
    MG_ASSERT(a.size() == b.size());
    MG_ASSERT(!a.empty());
    double dot = 0.0;
    double na = 0.0;
    double nb = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        dot += a[i] * b[i];
        na += a[i] * a[i];
        nb += b[i] * b[i];
    }
    MG_ASSERT(na > 0.0 && nb > 0.0);
    return dot / (std::sqrt(na) * std::sqrt(nb));
}

double
pearson(const std::vector<double>& a, const std::vector<double>& b)
{
    MG_ASSERT(a.size() == b.size());
    MG_ASSERT(a.size() >= 2);
    double ma = mean(a);
    double mb = mean(b);
    double cov = 0.0;
    double va = 0.0;
    double vb = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        cov += (a[i] - ma) * (b[i] - mb);
        va += (a[i] - ma) * (a[i] - ma);
        vb += (b[i] - mb) * (b[i] - mb);
    }
    MG_ASSERT(va > 0.0 && vb > 0.0);
    return cov / std::sqrt(va * vb);
}

} // namespace mg::stats
