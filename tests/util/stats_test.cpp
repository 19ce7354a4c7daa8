#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "netbase/rng.hpp"

namespace quicksand::util {
namespace {

TEST(Stats, MeanAndVariance) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_DOUBLE_EQ(Variance(v), 4.0);
  EXPECT_DOUBLE_EQ(StdDev(v), 2.0);
  const std::vector<double> empty;
  EXPECT_EQ(Mean(empty), 0.0);
  EXPECT_EQ(Variance(empty), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 1.75);
  EXPECT_DOUBLE_EQ(Median(v), 2.5);
}

TEST(Stats, PercentileSingleElementAndErrors) {
  const std::vector<double> one = {42};
  EXPECT_DOUBLE_EQ(Percentile(one, 99), 42.0);
  const std::vector<double> empty;
  EXPECT_THROW((void)Percentile(empty, 50), std::invalid_argument);
  EXPECT_THROW((void)Percentile(one, -1), std::invalid_argument);
  EXPECT_THROW((void)Percentile(one, 101), std::invalid_argument);
}

TEST(Stats, PercentileIgnoresInputOrder) {
  const std::vector<double> sorted = {1, 2, 3, 4, 5};
  const std::vector<double> shuffled = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Percentile(sorted, 75), Percentile(shuffled, 75));
}

TEST(Stats, PearsonPerfectCorrelations) {
  const std::vector<double> x = {1, 2, 3, 4, 5};
  const std::vector<double> y_pos = {2, 4, 6, 8, 10};
  const std::vector<double> y_neg = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, y_pos), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation(x, y_neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> constant = {5, 5, 5};
  EXPECT_EQ(PearsonCorrelation(x, constant), 0.0);
}

TEST(Stats, PearsonRejectsBadInput) {
  const std::vector<double> x = {1, 2, 3};
  const std::vector<double> y = {1, 2};
  EXPECT_THROW((void)PearsonCorrelation(x, y), std::invalid_argument);
  const std::vector<double> single = {1};
  EXPECT_THROW((void)PearsonCorrelation(single, single), std::invalid_argument);
}

TEST(Stats, PearsonNearZeroForIndependentNoise) {
  netbase::Rng rng(31);
  std::vector<double> x, y;
  for (int i = 0; i < 5000; ++i) {
    x.push_back(rng.UniformDouble());
    y.push_back(rng.UniformDouble());
  }
  EXPECT_NEAR(PearsonCorrelation(x, y), 0.0, 0.05);
}

TEST(Stats, CcdfMatchesDefinition) {
  const std::vector<double> v = {1, 1, 2, 5};
  const auto ccdf = Ccdf(v);
  ASSERT_EQ(ccdf.size(), 3u);
  EXPECT_DOUBLE_EQ(ccdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(ccdf[0].fraction, 1.0);
  EXPECT_DOUBLE_EQ(ccdf[1].value, 2.0);
  EXPECT_DOUBLE_EQ(ccdf[1].fraction, 0.5);
  EXPECT_DOUBLE_EQ(ccdf[2].value, 5.0);
  EXPECT_DOUBLE_EQ(ccdf[2].fraction, 0.25);
  const std::vector<double> empty;
  EXPECT_TRUE(Ccdf(empty).empty());
}

TEST(Stats, CcdfIsMonotoneNonIncreasing) {
  netbase::Rng rng(37);
  std::vector<double> v;
  for (int i = 0; i < 500; ++i) v.push_back(rng.Pareto(1.0, 1.1));
  const auto ccdf = Ccdf(v);
  for (std::size_t i = 1; i < ccdf.size(); ++i) {
    EXPECT_LT(ccdf[i - 1].value, ccdf[i].value);
    EXPECT_GE(ccdf[i - 1].fraction, ccdf[i].fraction);
  }
}

TEST(Stats, FractionAtLeast) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(FractionAtLeast(v, 3), 0.5);
  EXPECT_DOUBLE_EQ(FractionAtLeast(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(FractionAtLeast(v, 5), 0.0);
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(FractionAtLeast(empty, 1), 0.0);
}

TEST(Stats, SummarizeComputesAllFields) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = Summarize(v);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_DOUBLE_EQ(s.median, 50.5);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_NEAR(s.p25, 25.75, 1e-9);
  EXPECT_NEAR(s.p75, 75.25, 1e-9);
  const std::vector<double> empty;
  EXPECT_THROW((void)Summarize(empty), std::invalid_argument);
}

}  // namespace
}  // namespace quicksand::util
