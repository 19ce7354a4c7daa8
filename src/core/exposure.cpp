#include "core/exposure.hpp"

#include <algorithm>

namespace quicksand::core {

using bgp::AsIndex;
using bgp::AsNumber;
using bgp::ComputationOptions;
using bgp::LinkKey;
using bgp::LinkSet;
using bgp::RoutingState;

std::shared_ptr<const RoutingState> ExposureAnalyzer::StateFor(AsNumber dst) {
  ComputationOptions options;
  options.tie_break_salts = base_salts_;
  return cache_.GetOrCompute(*graph_, dst, options, bgp::SaltKey{salt_epoch_, {}});
}

std::vector<AsNumber> ExposureAnalyzer::PathFrom(const RoutingState& state, AsIndex src) const {
  std::vector<AsNumber> out;
  for (AsIndex as : state.ForwardingPath(src)) out.push_back(graph_->AsnOf(as));
  return out;
}

std::vector<AsNumber> ExposureAnalyzer::ForwardPathAses(AsNumber src, AsNumber dst) {
  if (src == dst) return {src};
  const auto state = StateFor(dst);
  const auto src_index = graph_->IndexOf(src);
  if (!src_index) return {};
  return PathFrom(*state, *src_index);
}

int ExposureAnalyzer::ForwardPathLength(AsNumber src, AsNumber dst) {
  return static_cast<int>(ForwardPathAses(src, dst).size());
}

SegmentExposure ExposureAnalyzer::InstantExposure(AsNumber client_as, AsNumber guard_as,
                                                  AsNumber exit_as, AsNumber dest_as) {
  SegmentExposure exposure;
  exposure.client_to_guard = ForwardPathAses(client_as, guard_as);
  exposure.guard_to_client = ForwardPathAses(guard_as, client_as);
  exposure.exit_to_dest = ForwardPathAses(exit_as, dest_as);
  exposure.dest_to_exit = ForwardPathAses(dest_as, exit_as);
  return exposure;
}

std::vector<AsNumber> ExposureAnalyzer::PathUnderVariant(AsNumber src, AsNumber dst,
                                                         netbase::Rng& rng) {
  // Start from the current path and perturb: fail one of its links or
  // re-salt one of its ASes, then take the route for this variant.
  if (src == dst) return {src};
  const auto base_state = StateFor(dst);
  const auto src_index = graph_->IndexOf(src);
  if (!src_index) return {};
  const auto base = PathFrom(*base_state, *src_index);
  if (base.size() < 2) return base;

  if (rng.Bernoulli(0.7)) {
    // Link-failure variants cut one of a handful of on-path links, so the
    // same (dst, failed link) keys recur across variants and circuits.
    const std::size_t cut = rng.UniformInt(0, base.size() - 2);
    const LinkSet disabled = {LinkKey(graph_->MustIndexOf(base[cut]),
                                      graph_->MustIndexOf(base[cut + 1]))};
    ComputationOptions options;
    options.disabled_links = &disabled;
    options.tie_break_salts = base_salts_;
    return PathFrom(*cache_.GetOrCompute(*graph_, dst, options, bgp::SaltKey{salt_epoch_, {}}),
                    *src_index);
  }
  // Salt-shift variants draw a fresh 64-bit salt each time: a shift of
  // the cached base state, which equals a solve with that one salt replaced.
  const AsIndex shifted = graph_->MustIndexOf(base[rng.UniformInt(0, base.size() - 1)]);
  return PathFrom(bgp::ShiftSalt(*base_state, shifted, rng() | 1), *src_index);
}

SegmentExposure ExposureAnalyzer::TemporalExposure(AsNumber client_as, AsNumber guard_as,
                                                   AsNumber exit_as, AsNumber dest_as,
                                                   std::size_t variants,
                                                   std::uint64_t seed) {
  SegmentExposure exposure = InstantExposure(client_as, guard_as, exit_as, dest_as);
  netbase::Rng rng(seed);
  for (std::size_t v = 0; v < variants; ++v) {
    SegmentExposure variant;
    variant.client_to_guard = PathUnderVariant(client_as, guard_as, rng);
    variant.guard_to_client = PathUnderVariant(guard_as, client_as, rng);
    variant.exit_to_dest = PathUnderVariant(exit_as, dest_as, rng);
    variant.dest_to_exit = PathUnderVariant(dest_as, exit_as, rng);
    AccumulateExposure(exposure, variant);
  }
  return exposure;
}

std::size_t ExposureAnalyzer::DistinctEntryAses(AsNumber client_as, AsNumber guard_as,
                                                std::size_t variants, std::uint64_t seed) {
  std::vector<AsNumber> all = ForwardPathAses(client_as, guard_as);
  {
    const auto reverse = ForwardPathAses(guard_as, client_as);
    all.insert(all.end(), reverse.begin(), reverse.end());
  }
  netbase::Rng rng(seed);
  for (std::size_t v = 0; v < variants; ++v) {
    const auto forward = PathUnderVariant(client_as, guard_as, rng);
    const auto reverse = PathUnderVariant(guard_as, client_as, rng);
    all.insert(all.end(), forward.begin(), forward.end());
    all.insert(all.end(), reverse.begin(), reverse.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all.size();
}

}  // namespace quicksand::core
