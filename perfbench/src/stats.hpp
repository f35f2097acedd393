#pragma once

// Order statistics for the benchmark's in-run samples.

#include <cstddef>
#include <vector>

namespace perfbench {

// Arithmetic mean of `samples`. Throws std::invalid_argument on an empty
// sample.
[[nodiscard]] double mean(const std::vector<double>& samples);

// Median of `samples` (mean of the two middle values for even counts).
// Throws std::invalid_argument on an empty sample.
[[nodiscard]] double median(std::vector<double> samples);

// Linear-interpolation quantile (q in [0, 1]) between closest ranks, the
// "inclusive" definition: q = 0 is the minimum, q = 1 the maximum.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

// The tail rule: a percentile is only reported when at least `min_beyond`
// samples lie beyond it. Returns the highest q' <= q that leaves at least
// `min_beyond` of `count` samples above it, never below the median (0.5).
// Example: 252 table cells support p95 (12.6 beyond) but not p99 (2.5), so
// p99 is lowered to 1 - 10/252 = p96.03.
[[nodiscard]] double supported_quantile(double q, std::size_t count,
                                        std::size_t min_beyond = 10);

// quantile(samples, supported_quantile(q, samples.size())).
[[nodiscard]] double tail_quantile(std::vector<double> samples, double q);

// Inter-quartile range as a share of the median, with the quartiles taken
// the way Python's statistics.quantiles(values, n=4) takes them (the
// default "exclusive" method). Needs at least two samples.
[[nodiscard]] double iqr_share(std::vector<double> samples);

}  // namespace perfbench
