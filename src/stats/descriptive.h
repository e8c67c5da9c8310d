/**
 * @file
 * Descriptive statistics used throughout the evaluation harness: means,
 * geometric means (the paper's headline speedup metric), standard
 * deviations, and the cosine similarity score used for the Table V
 * proxy-vs-parent hardware-counter validation.
 */
#pragma once

#include <vector>

namespace mg::stats {

/** Arithmetic mean; 0 for an empty input. */
double mean(const std::vector<double>& xs);

/** Population variance; 0 for fewer than two samples. */
double variance(const std::vector<double>& xs);

/** Population standard deviation. */
double stdev(const std::vector<double>& xs);

/** Geometric mean; requires all values strictly positive. */
double geomean(const std::vector<double>& xs);

/** Minimum / maximum; require non-empty input. */
double minOf(const std::vector<double>& xs);
double maxOf(const std::vector<double>& xs);

/** Median (mean of the two middle values for an even count); 0 if empty. */
double median(std::vector<double> xs);

/**
 * Cosine similarity of two equal-length non-zero vectors; 1 means the
 * vectors point the same way.  Used to quantify counter congruence between
 * proxy and parent, following Richards et al. (paper reference [28]).
 */
double cosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b);

/** Pearson correlation coefficient of two equal-length samples. */
double pearson(const std::vector<double>& a, const std::vector<double>& b);

} // namespace mg::stats
