#pragma once

// Synthetic Tor consensus generation, calibrated to the paper's July 2014
// snapshot: 4586 relays — 1918 guards, 891 exits, 442 flagged both — with
// relays heavily concentrated in a handful of hosting ASes (Figure 2 left:
// 5 ASes host ~20% of guard/exit relays). The relays-per-prefix
// distribution is not calibrated: the paper reports median 1, p75 2 and
// max 33 (in one /15), while table1_dataset_stats measures median 2, p75 4
// and max 69 at the paper seed (max 51-69 across seeds). This is a known
// gap, recorded in DESIGN.md section 1; its calibration is open work in
// ROADMAP.md.
//
// Relays are placed inside prefixes actually originated in the BGP
// topology, so the relay -> most-specific-prefix -> origin-AS mapping the
// measurement pipeline performs is exercised end-to-end.

#include <cstdint>
#include <vector>

#include "bgp/topology_gen.hpp"
#include "tor/consensus.hpp"

namespace quicksand::tor {

/// Relay and flag counts and the seed. Placement and bandwidth calibration
/// is fixed: named constants beside their draws in consensus_gen.cpp.
struct ConsensusGenParams {
  std::size_t total_relays = 4586;
  std::size_t guard_only = 1476;  ///< 1918 guards - 442 dual-flagged
  std::size_t exit_only = 449;    ///< 891 exits - 442 dual-flagged
  std::size_t guard_exit = 442;
  std::uint64_t seed = 99;
};

/// A generated consensus plus placement ground truth.
struct GeneratedConsensus {
  Consensus consensus;
  /// Host AS of each relay, aligned with consensus.relays(). Ground truth
  /// for tests; analysis code should recover it via TorPrefixMap instead.
  std::vector<bgp::AsNumber> host_as;
};

/// Generates a consensus over the given topology. Throws
/// std::invalid_argument if flag counts exceed total_relays or the
/// topology has no prefixes to place relays in.
[[nodiscard]] GeneratedConsensus GenerateConsensus(const bgp::Topology& topology,
                                                   const ConsensusGenParams& params);

}  // namespace quicksand::tor
