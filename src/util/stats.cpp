#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace quicksand::util {

double Mean(std::span<const double> values) noexcept {
  if (values.empty()) return 0;
  double total = 0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double Variance(std::span<const double> values) noexcept {
  if (values.size() < 2) return 0;
  const double mean = Mean(values);
  double total = 0;
  for (double v : values) total += (v - mean) * (v - mean);
  return total / static_cast<double>(values.size());
}

double StdDev(std::span<const double> values) noexcept {
  return std::sqrt(Variance(values));
}

double Percentile(std::span<const double> values, double q) {
  if (values.empty()) throw std::invalid_argument("Percentile: empty input");
  if (q < 0 || q > 100) throw std::invalid_argument("Percentile: q outside [0,100]");
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double position = q / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const double fraction = position - static_cast<double>(lower);
  if (lower + 1 >= sorted.size()) return sorted.back();
  return sorted[lower] + fraction * (sorted[lower + 1] - sorted[lower]);
}

double Median(std::span<const double> values) { return Percentile(values, 50); }

double PearsonCorrelation(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("PearsonCorrelation: length mismatch");
  }
  if (x.size() < 2) throw std::invalid_argument("PearsonCorrelation: need >= 2 points");
  const double mean_x = Mean(x);
  const double mean_y = Mean(y);
  double cov = 0, var_x = 0, var_y = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mean_x;
    const double dy = y[i] - mean_y;
    cov += dx * dy;
    var_x += dx * dx;
    var_y += dy * dy;
  }
  if (var_x == 0 || var_y == 0) return 0;
  return cov / std::sqrt(var_x * var_y);
}

std::vector<CcdfPoint> Ccdf(std::span<const double> values) {
  if (values.empty()) return {};
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size());
  std::vector<CcdfPoint> out;
  for (std::size_t i = 0; i < sorted.size();) {
    std::size_t j = i;
    while (j + 1 < sorted.size() && sorted[j + 1] == sorted[i]) ++j;
    // Fraction of samples >= sorted[i] is (n - i) / n.
    out.push_back({sorted[i], (n - static_cast<double>(i)) / n});
    i = j + 1;
  }
  return out;
}

double FractionAtLeast(std::span<const double> values, double threshold) noexcept {
  if (values.empty()) return 0;
  std::size_t count = 0;
  for (double v : values) {
    if (v >= threshold) ++count;
  }
  return static_cast<double>(count) / static_cast<double>(values.size());
}

Summary Summarize(std::span<const double> values) {
  if (values.empty()) throw std::invalid_argument("Summarize: empty input");
  Summary s;
  s.count = values.size();
  s.min = Percentile(values, 0);
  s.p25 = Percentile(values, 25);
  s.median = Percentile(values, 50);
  s.p75 = Percentile(values, 75);
  s.p90 = Percentile(values, 90);
  s.max = Percentile(values, 100);
  s.mean = Mean(values);
  return s;
}

}  // namespace quicksand::util
