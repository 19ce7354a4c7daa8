#pragma once

// The paper world every workload starts from (the ~600-AS synthetic
// Internet, the 4-collector / 72-session RIS deployment and the
// July-2014-calibrated consensus), and the seeds each workload derives
// from its --seed.

#include <cstdint>
#include <memory>
#include <optional>

#include "bgp/collector.hpp"
#include "bgp/topology_gen.hpp"
#include "harness.hpp"
#include "tor/consensus_gen.hpp"
#include "tor/prefix_map.hpp"

namespace perfbench {

/// Seeds of one run. The world (topology, collectors, consensus) and the
/// routing dynamics are always the paper benches' datasets: the dynamics
/// generator's heavy-tailed event counts swing a month's size and cost by
/// about ten percent from one seed to the next, wider than the benchmark's
/// bounds. A --seed replaces what each workload can vary without changing
/// how much work it is: the fault plan, the population, the routing
/// variants and relay draws of the countermeasures pairs, and the start
/// time of the month's archive.
struct Seeds {
  std::uint64_t world = 20140501;
  std::uint64_t dynamics = 20140502;
  std::uint64_t faults = 20140601;
  std::uint64_t population = 20140901;
  /// The --seed itself, when given (variant and relay draws, time shift).
  std::optional<std::uint64_t> run;
};

[[nodiscard]] inline Seeds SeedsFor(const Options& options) {
  Seeds seeds;
  if (options.seed_given) {
    seeds.faults = options.seed + 99;
    seeds.population = options.seed + 399;
    seeds.run = options.seed;
  }
  return seeds;
}

struct World {
  quicksand::bgp::Topology topology;
  quicksand::bgp::CollectorSet collectors;
  quicksand::tor::GeneratedConsensus consensus;
  quicksand::tor::TorPrefixMap prefix_map;
};

/// Builds the world with one span per generator. Heap-allocated because
/// selectors and analyzers keep references into it.
[[nodiscard]] inline std::unique_ptr<World> BuildWorld(const Seeds& seeds, Tracer& tracer) {
  namespace bgp = quicksand::bgp;
  namespace tor = quicksand::tor;
  auto world = std::make_unique<World>();
  {
    const Span span(tracer, "bgp.topology_gen");
    bgp::TopologyParams params;
    params.seed = seeds.world;
    world->topology = bgp::GenerateTopology(params);
  }
  {
    const Span span(tracer, "bgp.collector");
    bgp::CollectorParams params;
    params.seed = seeds.world + 1;
    world->collectors = bgp::CollectorSet::Create(world->topology, params);
  }
  {
    const Span span(tracer, "tor.consensus_gen");
    tor::ConsensusGenParams params;
    params.seed = seeds.world + 2;
    world->consensus = tor::GenerateConsensus(world->topology, params);
  }
  {
    const Span span(tracer, "tor.prefix_map");
    world->prefix_map = tor::TorPrefixMap::Build(world->consensus.consensus,
                                                 world->topology.prefix_origins);
  }
  return world;
}

}  // namespace perfbench
