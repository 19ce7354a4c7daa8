#include "bgp/sharded_routes.hpp"

#include "exec/parallel.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace quicksand::bgp {

std::vector<std::shared_ptr<const RoutingState>> ShardedComputeRoutes(
    const AsGraph& graph, std::span<const RouteShard> shards,
    const ShardedRouteOptions& options) {
  const obs::ScopedSpan span("bgp.sharded_routes");
  // Registered kRun: shard counts double with repeated sweeps, which the
  // determinism comparison must not see.
  obs::MetricsRegistry::Global()
      .GetCounter("exec.sharded_routes.shards", obs::Stability::kRun)
      .Increment(shards.size());
  return exec::ParallelMap(
      options.threads, shards.size(),
      [&](std::size_t i) -> std::shared_ptr<const RoutingState> {
        const RouteShard& shard = shards[i];
        ComputationOptions computation;
        computation.disabled_links = shard.disabled_links;
        computation.tie_break_salts = shard.tie_break_salts;
        if (options.cache != nullptr) {
          return options.cache->GetOrCompute(graph, shard.origins, computation,
                                             shard.salts);
        }
        return std::make_shared<const RoutingState>(
            ComputeRoutes(graph, shard.origins, computation));
      },
      options.grain);
}

std::vector<std::shared_ptr<const RoutingState>> ShardedComputeRoutes(
    const AsGraph& graph, std::span<const AsNumber> origins,
    const ShardedRouteOptions& options) {
  std::vector<RouteShard> shards(origins.size());
  for (std::size_t i = 0; i < origins.size(); ++i) {
    shards[i].origins = {OriginSpec{origins[i], 1, 0}};
  }
  return ShardedComputeRoutes(graph, shards, options);
}

}  // namespace quicksand::bgp
