#include "traffic/flow_sim.hpp"

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace quicksand::traffic {
namespace {

FlowSimParams SmallTransfer(std::uint64_t file_mb = 4) {
  FlowSimParams params;
  params.file_bytes = file_mb << 20;
  params.seed = 101;
  return params;
}

TEST(FlowSim, DeliversTheWholeFile) {
  const FlowSimParams params = SmallTransfer();
  const FlowTraces traces = SimulateTransfer(params);
  // The client receives the file inflated by Tor cell framing.
  const auto expected = static_cast<double>(params.file_bytes) * kCellOverhead;
  EXPECT_NEAR(static_cast<double>(traces.delivered_bytes), expected, 2048.0);
  EXPECT_GT(traces.completion_time_s, 0.0);
  EXPECT_LT(traces.completion_time_s, kMaxSimTimeS);
}

TEST(FlowSim, ThroughputGovernedByBottleneck) {
  FlowSimParams params = SmallTransfer(4);
  const FlowTraces traces = SimulateTransfer(params);
  const double bottleneck = params.links[3].rate_bytes_per_s;
  const double achieved =
      static_cast<double>(params.file_bytes) / traces.completion_time_s;
  EXPECT_LT(achieved, bottleneck * 1.05);
  EXPECT_GT(achieved, bottleneck * 0.5);  // no pathological stalls
}

TEST(FlowSim, TapsSeeDataAndAcksInTheRightDirections) {
  const FlowTraces traces = SimulateTransfer(SmallTransfer());
  // Download: data flows b->a on both taps, acks a->b.
  EXPECT_GT(TotalPayloadBytes(traces.client_guard.b_to_a), 0u);
  EXPECT_EQ(TotalPayloadBytes(traces.client_guard.a_to_b), 0u);
  EXPECT_GT(FinalAckedBytes(traces.client_guard.a_to_b), 0u);
  EXPECT_GT(TotalPayloadBytes(traces.exit_server.b_to_a), 0u);
  EXPECT_GT(FinalAckedBytes(traces.exit_server.a_to_b), 0u);
}

TEST(FlowSim, AcksAccountForAllData) {
  const FlowTraces traces = SimulateTransfer(SmallTransfer());
  // On each tapped connection the final cumulative ACK equals the bytes
  // that crossed the link (everything is eventually acknowledged).
  EXPECT_EQ(FinalAckedBytes(traces.client_guard.a_to_b),
            TotalPayloadBytes(traces.client_guard.b_to_a));
  EXPECT_EQ(FinalAckedBytes(traces.exit_server.a_to_b),
            TotalPayloadBytes(traces.exit_server.b_to_a));
}

TEST(FlowSim, CellFramingInflatesTorSideSlightly) {
  const FlowSimParams params = SmallTransfer();
  const FlowTraces traces = SimulateTransfer(params);
  const auto raw = TotalPayloadBytes(traces.exit_server.b_to_a);
  const auto cells = TotalPayloadBytes(traces.client_guard.b_to_a);
  EXPECT_GT(cells, raw);
  EXPECT_NEAR(static_cast<double>(cells) / static_cast<double>(raw),
              kCellOverhead, 0.01);
}

TEST(FlowSim, PacketTimestampsAreMonotonePerStream) {
  const FlowTraces traces = SimulateTransfer(SmallTransfer(2));
  for (const auto* stream :
       {&traces.client_guard.a_to_b, &traces.client_guard.b_to_a,
        &traces.exit_server.a_to_b, &traces.exit_server.b_to_a}) {
    for (std::size_t i = 1; i < stream->size(); ++i) {
      EXPECT_LE((*stream)[i - 1].time_s, (*stream)[i].time_s);
    }
  }
}

TEST(FlowSim, CumulativeAcksAreMonotone) {
  const FlowTraces traces = SimulateTransfer(SmallTransfer(2));
  std::uint64_t last = 0;
  for (const PacketRecord& p : traces.client_guard.a_to_b) {
    if (!p.has_ack) continue;
    EXPECT_GE(p.cumulative_ack, last);
    last = p.cumulative_ack;
  }
}

TEST(FlowSim, UploadFlipsDirections) {
  FlowSimParams params = SmallTransfer(2);
  params.direction = TransferDirection::kUpload;
  const FlowTraces traces = SimulateTransfer(params);
  EXPECT_GT(TotalPayloadBytes(traces.client_guard.a_to_b), 0u);
  EXPECT_EQ(TotalPayloadBytes(traces.client_guard.b_to_a), 0u);
  EXPECT_GT(FinalAckedBytes(traces.client_guard.b_to_a), 0u);
  EXPECT_GT(TotalPayloadBytes(traces.exit_server.a_to_b), 0u);
}

TEST(FlowSim, DeterministicForSeed) {
  const FlowTraces a = SimulateTransfer(SmallTransfer(1));
  const FlowTraces b = SimulateTransfer(SmallTransfer(1));
  EXPECT_DOUBLE_EQ(a.completion_time_s, b.completion_time_s);
  ASSERT_EQ(a.client_guard.b_to_a.size(), b.client_guard.b_to_a.size());
  EXPECT_DOUBLE_EQ(a.client_guard.b_to_a.back().time_s,
                   b.client_guard.b_to_a.back().time_s);
}

TEST(FlowSim, ValidatesParams) {
  FlowSimParams params = SmallTransfer();
  params.file_bytes = 0;
  EXPECT_THROW((void)SimulateTransfer(params), std::invalid_argument);
  params = SmallTransfer();
  params.links[0].rate_bytes_per_s = 0;
  EXPECT_THROW((void)SimulateTransfer(params), std::invalid_argument);
}

TEST(FlowSim, FourSegmentSeriesNearlyIdentical) {
  // The Figure 2 (right) headline: MB sent/acked on all four observable
  // series track each other closely over time.
  FlowSimParams params = SmallTransfer(8);
  const FlowTraces traces = SimulateTransfer(params);
  const double duration = traces.completion_time_s + 1.0;
  const auto guard_to_client =
      DataBytesBinned(traces.client_guard.b_to_a, 1.0, duration);
  const auto client_to_guard =
      AckedBytesBinned(traces.client_guard.a_to_b, 1.0, duration);
  const auto server_to_exit = DataBytesBinned(traces.exit_server.b_to_a, 1.0, duration);
  const auto exit_to_server = AckedBytesBinned(traces.exit_server.a_to_b, 1.0, duration);
  EXPECT_GT(util::PearsonCorrelation(guard_to_client, client_to_guard), 0.9);
  EXPECT_GT(util::PearsonCorrelation(server_to_exit, exit_to_server), 0.9);
  EXPECT_GT(util::PearsonCorrelation(guard_to_client, server_to_exit), 0.85);
  EXPECT_GT(util::PearsonCorrelation(client_to_guard, exit_to_server), 0.85);
}

// Conservation sweep: across directions and sizes, every byte offered is
// delivered (modulo cell framing), fully acknowledged at both taps, and
// throughput never exceeds the physical bottleneck.
struct FlowCase {
  TransferDirection direction;
  std::uint64_t megabytes;
};

class FlowConservation : public ::testing::TestWithParam<FlowCase> {};

TEST_P(FlowConservation, BytesConservedAndAcknowledged) {
  FlowSimParams params;
  params.direction = GetParam().direction;
  params.file_bytes = GetParam().megabytes << 20;
  params.seed = 4242 + GetParam().megabytes;
  const FlowTraces traces = SimulateTransfer(params);

  const double expected =
      static_cast<double>(params.file_bytes) * kCellOverhead;
  EXPECT_NEAR(static_cast<double>(traces.delivered_bytes), expected, 2048.0);

  const bool download = params.direction == TransferDirection::kDownload;
  const auto& cg_data = download ? traces.client_guard.b_to_a : traces.client_guard.a_to_b;
  const auto& cg_acks = download ? traces.client_guard.a_to_b : traces.client_guard.b_to_a;
  const auto& es_data = download ? traces.exit_server.b_to_a : traces.exit_server.a_to_b;
  const auto& es_acks = download ? traces.exit_server.a_to_b : traces.exit_server.b_to_a;
  EXPECT_EQ(FinalAckedBytes(cg_acks), TotalPayloadBytes(cg_data));
  EXPECT_EQ(FinalAckedBytes(es_acks), TotalPayloadBytes(es_data));

  // The raw-stream tap carries exactly the file; the Tor-side tap the
  // cell-framed stream.
  const auto raw = download ? TotalPayloadBytes(es_data) : TotalPayloadBytes(cg_data);
  EXPECT_EQ(raw, params.file_bytes);

  // Physically possible: never faster than the bottleneck plus modulation.
  double bottleneck = params.links[0].rate_bytes_per_s;
  for (const LinkParams& link : params.links) {
    bottleneck = std::min(bottleneck, link.rate_bytes_per_s);
  }
  const double achieved =
      static_cast<double>(params.file_bytes) / traces.completion_time_s;
  EXPECT_LT(achieved, bottleneck * (1.0 + kRateModulationSpread));
}

INSTANTIATE_TEST_SUITE_P(
    DirectionsAndSizes, FlowConservation,
    ::testing::Values(FlowCase{TransferDirection::kDownload, 1},
                      FlowCase{TransferDirection::kDownload, 4},
                      FlowCase{TransferDirection::kDownload, 16},
                      FlowCase{TransferDirection::kUpload, 1},
                      FlowCase{TransferDirection::kUpload, 4},
                      FlowCase{TransferDirection::kUpload, 16}),
    [](const ::testing::TestParamInfo<FlowCase>& info) {
      return std::string(info.param.direction == TransferDirection::kDownload
                             ? "download"
                             : "upload") +
             std::to_string(info.param.megabytes) + "mb";
    });

}  // namespace
}  // namespace quicksand::traffic
