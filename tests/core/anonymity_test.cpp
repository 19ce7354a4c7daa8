#include "core/anonymity.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace quicksand::core {
namespace {

TEST(Anonymity, MatchesClosedForm) {
  EXPECT_DOUBLE_EQ(CompromiseProbability(0.0, 10), 0.0);
  EXPECT_DOUBLE_EQ(CompromiseProbability(1.0, 1), 1.0);
  EXPECT_NEAR(CompromiseProbability(0.1, 1), 0.1, 1e-12);
  EXPECT_NEAR(CompromiseProbability(0.1, 2), 1 - 0.81, 1e-12);
  EXPECT_NEAR(CompromiseProbability(0.01, 100), 1 - std::pow(0.99, 100), 1e-12);
}

TEST(Anonymity, StableForTinyProbabilities) {
  // 1-(1-f)^x for f=1e-9, x=10 is ~1e-8; naive pow would lose precision.
  const double p = CompromiseProbability(1e-9, 10);
  EXPECT_NEAR(p, 1e-8, 1e-12);
  EXPECT_GT(p, 0.0);
}

TEST(Anonymity, MonotoneInBothArguments) {
  double previous = -1;
  for (double x : {1.0, 2.0, 4.0, 8.0, 16.0}) {
    const double p = CompromiseProbability(0.02, x);
    EXPECT_GT(p, previous);
    previous = p;
  }
  EXPECT_LT(CompromiseProbability(0.01, 5), CompromiseProbability(0.02, 5));
}

TEST(Anonymity, MultiGuardAmplifies) {
  const double one_guard = MultiGuardCompromiseProbability(0.01, 1, 6);
  const double three_guards = MultiGuardCompromiseProbability(0.01, 3, 6);
  EXPECT_GT(three_guards, one_guard);
  EXPECT_NEAR(three_guards, CompromiseProbability(0.01, 18), 1e-12);
}

TEST(Anonymity, InputValidation) {
  EXPECT_THROW((void)CompromiseProbability(-0.1, 1), std::invalid_argument);
  EXPECT_THROW((void)CompromiseProbability(1.1, 1), std::invalid_argument);
  EXPECT_THROW((void)CompromiseProbability(0.5, -1), std::invalid_argument);
  EXPECT_THROW((void)MultiGuardCompromiseProbability(0.5, -1, 1), std::invalid_argument);
  EXPECT_THROW((void)ExpectedInstancesToCompromise(2.0), std::invalid_argument);
  EXPECT_THROW((void)ExposureNeededForProbability(0.5, 1, 1.0), std::invalid_argument);
}

TEST(Anonymity, ExpectedInstances) {
  EXPECT_DOUBLE_EQ(ExpectedInstancesToCompromise(0.5), 2.0);
  EXPECT_DOUBLE_EQ(ExpectedInstancesToCompromise(1.0), 1.0);
  EXPECT_GE(ExpectedInstancesToCompromise(0.0), 1e17);
}

TEST(Anonymity, ExposureNeededInvertsTheFormula) {
  const double x = ExposureNeededForProbability(0.02, 3, 0.5);
  EXPECT_NEAR(MultiGuardCompromiseProbability(0.02, 3, x), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(ExposureNeededForProbability(0.02, 3, 0.0), 0.0);
  EXPECT_GE(ExposureNeededForProbability(0.0, 3, 0.5), 1e17);
  EXPECT_GE(ExposureNeededForProbability(0.5, 0, 0.5), 1e17);
}

// Parameterized sweep: the paper's qualitative claim — probability grows
// exponentially with x — means log(1-p) is linear in x.
class AnonymityLogLinear : public ::testing::TestWithParam<double> {};

TEST_P(AnonymityLogLinear, LogSurvivalIsLinearInExposure) {
  const double f = GetParam();
  const double base = std::log1p(-CompromiseProbability(f, 1));
  for (double x : {2.0, 5.0, 9.0, 17.0}) {
    const double survival = std::log1p(-CompromiseProbability(f, x));
    EXPECT_NEAR(survival, x * base, 1e-9 * std::abs(x * base) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(MaliciousFractions, AnonymityLogLinear,
                         ::testing::Values(0.001, 0.01, 0.05, 0.2));

}  // namespace
}  // namespace quicksand::core
