// client_population: the population engine over the paper consensus
// against a 10% bandwidth adversary. Set-up builds a resident population
// of 64 shards x 65,536 clients, homed round-robin in the eyeball ASes. A
// pass advances a fresh copy of one shard through 40 days of
// guard-rotation sweeps, circuit builds and compromise scoring, the loop
// core::SimulatePopulationExposure runs per shard. 40 > 30 days, so every
// pass includes a rotation sweep. Item = client-day. No routing or feed
// layer runs.

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/population_exposure.hpp"
#include "harness.hpp"
#include "tor/path_selection.hpp"
#include "tor/population.hpp"
#include "world.hpp"

namespace perfbench {
namespace {

namespace bgp = quicksand::bgp;
namespace core = quicksand::core;
namespace netbase = quicksand::netbase;
namespace tor = quicksand::tor;

constexpr double kAdversaryBandwidth = 0.10;

class PopulationWorkload final : public Workload {
 public:
  explicit PopulationWorkload(const Options& options)
      : seeds_(SeedsFor(options)),
        shard_clients_(options.small ? 4096 : 65536),
        shards_(options.small ? 2 : 64),
        days_(options.small ? 31 : 40) {}

  void SetUp(Tracer& tracer) override {
    population_.clear();
    selector_.reset();
    world_ = BuildWorld(seeds_, tracer);
    const tor::Consensus& consensus = world_->consensus.consensus;
    {
      const Span span(tracer, "tor.path_selection");
      selector_ = std::make_unique<tor::PathSelector>(consensus);
    }
    // The adversary marking and the population's substream root come from
    // one Rng, in SimulatePopulationExposure's order.
    netbase::Rng rng(seeds_.population);
    {
      const Span span(tracer, "core.population_exposure");
      malicious_ = core::MarkMaliciousByBandwidth(consensus, kAdversaryBandwidth, rng).malicious;
    }
    const std::uint64_t substream_seed = rng();
    const std::span<const bgp::AsNumber> pool = world_->topology.eyeballs;
    const Span span(tracer, "tor.population.build");
    population_.reserve(shards_);
    std::vector<std::uint32_t> as_ids(shard_clients_);
    for (std::size_t shard = 0; shard < shards_; ++shard) {
      const std::size_t first = shard * shard_clients_;
      for (std::size_t i = 0; i < shard_clients_; ++i) {
        as_ids[i] = static_cast<std::uint32_t>((first + i) % pool.size());
      }
      population_.push_back(tor::ClientPopulation::ForShard(
          *selector_, tor::PopulationConfig{}, as_ids, substream_seed, first));
    }
  }

  void TearDown() override {
    population_.clear();
    population_.shrink_to_fit();
    selector_.reset();
    world_.reset();
  }

  std::size_t Variants() const override { return shards_; }

  /// A pass advances a copy, so every run of a shard starts from the
  /// resident state and repeats exactly.
  void Prepare(std::size_t variant) override {
    working_.reset();
    working_.emplace(population_[variant]);
    first_day_.assign(shard_clients_, static_cast<std::uint32_t>(days_));
    circuits_.assign(shard_clients_, tor::Circuit{});
  }

  double Pass(std::size_t /*variant*/, PassContext& ctx) override {
    for (std::size_t day = 0; day < days_; ++day) {
      const netbase::SimTime now{static_cast<std::int64_t>(day) * netbase::duration::kDay};
      ctx.Step("tor.population.rotate", [&] { return working_->RotateExpired(now); });
      ctx.Step("tor.population.circuits", [&] {
        working_->BuildCircuits(circuits_);
        return circuits_.size();
      });
      ctx.Step("perfbench.score", [&] {
        for (std::size_t c = 0; c < shard_clients_; ++c) {
          if (first_day_[c] == days_ && malicious_[circuits_[c].guard] &&
              malicious_[circuits_[c].exit]) {
            first_day_[c] = static_cast<std::uint32_t>(day);
          }
        }
        return 0;
      });
    }
    return static_cast<double>(shard_clients_ * days_);
  }

  void Verify(std::size_t variant, Result& result) override {
    result.attempted += 2 * days_;  // one rotation sweep and one circuit batch a day
    Digest digest;
    digest.Add(working_->rotations()).Add(working_->circuits_built());
    for (const std::uint32_t day : first_day_) digest.Add(day);
    auto [it, inserted] = shard_digests_.emplace(variant, digest.value());
    if (inserted && variant == 0) {
      first_rotations_ = working_->rotations();
      first_circuits_ = working_->circuits_built();
      first_days_ = first_day_;
    } else if (!inserted && it->second != digest.value()) {
      ++result.failed;
      result.Fail("client_population: a repeated shard's outputs differ");
    }
  }

  /// The first shard must reproduce SimulatePopulationExposure run over
  /// exactly its clients with the same seed.
  void Finish(Result& result) override {
    core::PopulationExposureParams params;
    params.clients = shard_clients_;
    params.days = days_;
    params.malicious_bandwidth_fraction = kAdversaryBandwidth;
    params.seed = seeds_.population;
    params.threads = 1;
    params.shard_clients = shard_clients_;
    const core::PopulationExposureResult reference = core::SimulatePopulationExposure(
        *selector_, world_->topology.eyeballs, params);
    ++result.attempted;

    std::vector<std::size_t> newly(days_, 0);
    std::map<bgp::AsNumber, std::size_t> compromised_per_as;
    std::size_t compromised = 0;
    const auto& pool = world_->topology.eyeballs;
    for (std::size_t c = 0; c < first_days_.size(); ++c) {
      if (first_days_[c] >= days_) continue;
      ++newly[first_days_[c]];
      ++compromised_per_as[pool[c % pool.size()]];
      ++compromised;
    }
    bool same = reference.circuits == first_circuits_ &&
                reference.rotations == first_rotations_ &&
                reference.cumulative_compromised.size() == days_;
    std::size_t cumulative = 0;
    for (std::size_t day = 0; same && day < days_; ++day) {
      cumulative += newly[day];
      same = reference.cumulative_compromised[day] ==
             static_cast<double>(cumulative) / static_cast<double>(shard_clients_);
    }
    for (const core::ClientAsExposure& entry : reference.per_as) {
      const auto it = compromised_per_as.find(entry.as);
      same = same && entry.compromised == (it == compromised_per_as.end() ? 0 : it->second);
    }
    if (!same) {
      ++result.failed;
      result.Fail("client_population: first shard differs from SimulatePopulationExposure");
    }

    Digest digest;
    digest.AddBytes("client_population");
    for (const auto& [shard, value] : shard_digests_) {
      if (shard == 0) digest.Add(value);
    }
    result.digest = digest.Hex();
    result.counts["first_shard.rotations"] = first_rotations_;
    result.counts["first_shard.circuits"] = first_circuits_;
    result.counts["first_shard.compromised"] = compromised;
    result.counts["clients_resident"] = shard_clients_ * shards_;
  }

  void LayerMetrics(const TraceData& /*data*/, Result& result) override {
    result.Set("tor.population.rotations", static_cast<double>(first_rotations_), "count");
    result.Set("tor.population.circuits", static_cast<double>(first_circuits_), "count");
  }

 private:
  Seeds seeds_;
  std::size_t shard_clients_;
  std::size_t shards_;
  std::size_t days_;
  std::unique_ptr<World> world_;
  std::unique_ptr<tor::PathSelector> selector_;
  std::vector<bool> malicious_;
  std::vector<tor::ClientPopulation> population_;

  std::optional<tor::ClientPopulation> working_;
  std::vector<std::uint32_t> first_day_;
  std::vector<tor::Circuit> circuits_;

  std::map<std::size_t, std::uint64_t> shard_digests_;
  std::uint64_t first_rotations_ = 0;
  std::uint64_t first_circuits_ = 0;
  std::vector<std::uint32_t> first_days_;
};

}  // namespace

std::unique_ptr<Workload> MakeClientPopulation(const Options& options) {
  return std::make_unique<PopulationWorkload>(options);
}

}  // namespace perfbench
