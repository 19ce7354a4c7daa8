#pragma once

// The paper's analytical anonymity model (Section 3.1).
//
// With f the probability that any AS is malicious (colluding adversaries),
// and x the number of distinct ASes that appear on the client<->guard
// paths over time, the probability that the adversary observes the
// client's communication approaches 1 - (1-f)^x. With l guards the
// exponent becomes l*x. BGP dynamics raise x, so the compromise
// probability grows with churn — exponentially in the number of exposed
// ASes.

#include <cstddef>

namespace quicksand::core {

/// P(at least one of x ASes is malicious) = 1 - (1-f)^x.
/// Throws std::invalid_argument if f is outside [0,1] or x < 0.
[[nodiscard]] double CompromiseProbability(double f, double x);

/// Multi-guard variant: 1 - (1-f)^(l*x) for l guards (Tor uses l = 3).
/// Throws std::invalid_argument on invalid f, l < 0, or x < 0.
[[nodiscard]] double MultiGuardCompromiseProbability(double f, double l, double x);

/// Expected number of independent communication instances until the first
/// compromise, 1/p (infinity is reported as a very large value when p==0).
/// Throws std::invalid_argument if p is outside [0,1].
[[nodiscard]] double ExpectedInstancesToCompromise(double per_instance_probability);

/// Smallest x such that the compromise probability reaches `target`
/// (for reporting "how much churn until odds exceed 50%?").
/// Throws std::invalid_argument on invalid f/l or target outside [0,1).
/// Returns a large sentinel (1e18) when f == 0 or l == 0.
[[nodiscard]] double ExposureNeededForProbability(double f, double l, double target);

}  // namespace quicksand::core
