#pragma once

// Statistics toolkit used by the measurement pipeline and the benches:
// percentiles, empirical CCDFs (the paper reports Figure 3 as CCDFs),
// Pearson correlation (the asymmetric traffic-analysis attack),
// and small summary helpers.

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace quicksand::util {

/// Arithmetic mean. Returns 0 for an empty span.
[[nodiscard]] double Mean(std::span<const double> values) noexcept;

/// Population variance. Returns 0 for spans of size < 2.
[[nodiscard]] double Variance(std::span<const double> values) noexcept;

/// Population standard deviation.
[[nodiscard]] double StdDev(std::span<const double> values) noexcept;

/// Linear-interpolated percentile, q in [0, 100].
/// Throws std::invalid_argument on empty input or q outside [0, 100].
[[nodiscard]] double Percentile(std::span<const double> values, double q);

/// Median (50th percentile). Throws on empty input.
[[nodiscard]] double Median(std::span<const double> values);

/// Pearson product-moment correlation coefficient of two equal-length
/// series. Returns 0 if either series is constant.
/// Throws std::invalid_argument if lengths differ or are < 2.
[[nodiscard]] double PearsonCorrelation(std::span<const double> x,
                                        std::span<const double> y);

/// One point of an empirical complementary CDF.
struct CcdfPoint {
  double value = 0;     ///< threshold x
  double fraction = 0;  ///< P(X >= x), in [0, 1]
};

/// Empirical CCDF of a sample: for each distinct value v in ascending
/// order, the fraction of samples >= v. Matches the paper's Figure 3
/// plotting convention. Returns an empty vector for empty input.
[[nodiscard]] std::vector<CcdfPoint> Ccdf(std::span<const double> values);

/// Fraction of samples >= threshold (reads the CCDF at one point).
[[nodiscard]] double FractionAtLeast(std::span<const double> values,
                                     double threshold) noexcept;

/// Five-number-plus summary used in report tables.
struct Summary {
  std::size_t count = 0;
  double min = 0;
  double p25 = 0;
  double median = 0;
  double p75 = 0;
  double p90 = 0;
  double max = 0;
  double mean = 0;
};

/// Computes a Summary. Throws std::invalid_argument on empty input.
[[nodiscard]] Summary Summarize(std::span<const double> values);

}  // namespace quicksand::util
