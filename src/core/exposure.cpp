#include "core/exposure.hpp"

#include <algorithm>

namespace quicksand::core {

using bgp::AsIndex;
using bgp::AsNumber;
using bgp::ComputationOptions;
using bgp::LinkKey;
using bgp::RouteClass;
using bgp::RoutingState;

namespace {

/// The AS after `as` on a forwarding path of `state` in which AS `detour`
/// forwards to `detour_hop` instead of its own next hop.
AsIndex NextOnPath(const RoutingState& state, AsIndex as, AsIndex detour, AsIndex detour_hop) {
  return as == detour ? detour_hop : state.RouteOf(as).next_hop;
}

/// The number of ASes on `src`'s forwarding path (0 if it is unrouted).
std::size_t PathSize(const RoutingState& state, AsIndex src, AsIndex detour, AsIndex detour_hop) {
  if (!state.HasRoute(src)) return 0;
  std::size_t size = 1;
  for (AsIndex as = src; state.RouteOf(as).cls != RouteClass::kSelf;
       as = NextOnPath(state, as, detour, detour_hop)) {
    ++size;
  }
  return size;
}

/// The AS `steps` hops along `src`'s forwarding path.
AsIndex HopAt(const RoutingState& state, AsIndex src, std::size_t steps) {
  AsIndex as = src;
  for (; steps > 0; --steps) as = state.RouteOf(as).next_hop;
  return as;
}

}  // namespace

std::shared_ptr<const RoutingState> ExposureAnalyzer::StateFor(AsNumber dst,
                                                               std::uint64_t failed_link) {
  ComputationOptions options;
  options.tie_break_salts = base_salts_;
  if (failed_link != 0) options.disabled_links = std::span(&failed_link, 1);
  return cache_.GetOrCompute(*graph_, dst, options, bgp::SaltKey{salt_epoch_, {}});
}

std::vector<AsNumber> ExposureAnalyzer::PathFrom(const RoutingState& state, AsIndex src,
                                                 AsIndex detour, AsIndex detour_hop) const {
  const std::size_t size = PathSize(state, src, detour, detour_hop);
  std::vector<AsNumber> out;
  out.reserve(size);
  for (AsIndex as = src; out.size() < size; as = NextOnPath(state, as, detour, detour_hop)) {
    out.push_back(graph_->AsnOf(as));
  }
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
  const auto base = StateFor(dst);
  const auto src_index = graph_->IndexOf(src);
  if (!src_index) return {};
  const std::size_t hops = PathSize(*base, *src_index, kNoDetour, 0);
  if (hops < 2) return PathFrom(*base, *src_index);

  if (rng.Bernoulli(0.7)) {
    // Link-failure variants cut one of a handful of on-path links, so the
    // same (dst, failed link) keys recur across variants and circuits; a
    // key the cache misses is derived from `base` (bgp::FailLink).
    const AsIndex near = HopAt(*base, *src_index, rng.UniformInt(0, hops - 2));
    return PathFrom(*StateFor(dst, LinkKey(near, base->RouteOf(near).next_hop)), *src_index);
  }
  // Salt-shift variants draw a fresh 64-bit salt each time. Only the
  // shifted AS's next hop changes (bgp::ShiftSalt), so the path is read off
  // `base` with that one hop replaced.
  const AsIndex shifted = HopAt(*base, *src_index, rng.UniformInt(0, hops - 1));
  return PathFrom(*base, *src_index, shifted, base->NextHopWithSalt(shifted, rng() | 1));
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
