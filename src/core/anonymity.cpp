#include "core/anonymity.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace quicksand::core {

namespace {

void CheckProbability(double f, const char* name) {
  if (!(f >= 0.0 && f <= 1.0)) {
    throw std::invalid_argument(std::string(name) + " must be in [0,1]");
  }
}

}  // namespace

double CompromiseProbability(double f, double x) {
  CheckProbability(f, "f");
  if (x < 0) throw std::invalid_argument("x must be non-negative");
  // Computed in log space for numerical stability with tiny f, large x.
  return -std::expm1(x * std::log1p(-f));
}

double MultiGuardCompromiseProbability(double f, double l, double x) {
  if (l < 0) throw std::invalid_argument("l must be non-negative");
  return CompromiseProbability(f, l * x);
}

double ExpectedInstancesToCompromise(double per_instance_probability) {
  CheckProbability(per_instance_probability, "p");
  if (per_instance_probability == 0) return 1e18;
  return 1.0 / per_instance_probability;
}

double ExposureNeededForProbability(double f, double l, double target) {
  CheckProbability(f, "f");
  if (l < 0) throw std::invalid_argument("l must be non-negative");
  if (!(target >= 0.0 && target < 1.0)) {
    throw std::invalid_argument("target must be in [0,1)");
  }
  if (target == 0) return 0;
  if (f == 0 || l == 0) return 1e18;
  if (f == 1) return target > 0 ? 1.0 / l : 0.0;
  // Solve 1-(1-f)^(l x) = target  =>  x = log(1-target) / (l log(1-f)).
  return std::log1p(-target) / (l * std::log1p(-f));
}

}  // namespace quicksand::core
