#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double mean(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("mean: no samples");
  double total = 0.0;
  for (const double x : samples) total += x;
  return total / static_cast<double>(samples.size());
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("quantile: no samples");
  q = std::clamp(q, 0.0, 1.0);
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double supported_quantile(double q, std::size_t count,
                          std::size_t min_beyond) {
  if (count == 0) return 0.5;
  const double limit = 1.0 - static_cast<double>(min_beyond) /
                                 static_cast<double>(count);
  return std::max(0.5, std::min(q, limit));
}

double tail_quantile(std::vector<double> samples, double q) {
  const double supported = supported_quantile(q, samples.size());
  return quantile(std::move(samples), supported);
}

double iqr_share(std::vector<double> samples) {
  if (samples.size() < 2) throw std::invalid_argument("iqr_share: < 2 samples");
  std::sort(samples.begin(), samples.end());
  // statistics.quantiles(method="exclusive"): m = n + 1, the j-th cut point
  // sits at position j*m/4 (1-based), interpolated between neighbours.
  const auto n = static_cast<double>(samples.size());
  const auto cut = [&](int j) {
    const double pos = j * (n + 1.0) / 4.0;
    const double lo = std::clamp(std::floor(pos), 1.0, n - 1.0);
    const double frac = pos - lo;
    const double a = samples[static_cast<std::size_t>(lo) - 1];
    const double b = samples[static_cast<std::size_t>(lo)];
    return a + (b - a) * frac;
  };
  return (cut(3) - cut(1)) / median(samples);
}

}  // namespace perfbench
