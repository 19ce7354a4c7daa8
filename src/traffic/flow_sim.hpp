#pragma once

// Discrete-event simulation of a file transfer across a Tor circuit.
//
// Five nodes — client, guard, middle, exit, server — joined by four
// hop-by-hop TCP connections (Tor relays terminate TCP at every hop).
// Each connection runs the TcpSender/TcpReceiver state machines over a
// link with direction-asymmetric delay, jitter, and a rate cap; relays
// store-and-forward, and the exit wraps the server's stream into
// 514-byte Tor cells (a small, realistic byte-count inflation between
// the two taps). Packet taps on the client<->guard and exit<->server
// links record what an eavesdropping AS at either end would capture —
// the input to the Section 3.3 asymmetric correlation attack and the
// reproduction of Figure 2 (right).

#include <array>
#include <cstdint>

#include "traffic/trace.hpp"

namespace quicksand::traffic {

/// Per-link characteristics. "fwd" is the data direction of the transfer,
/// "rev" the acknowledgement direction; real Internet paths are
/// asymmetric, so the two delays differ. Every packet also draws an
/// exponential jitter of fixed mean (flow_sim.cpp).
struct LinkParams {
  double delay_fwd_s = 0.030;
  double delay_rev_s = 0.040;
  double rate_bytes_per_s = 3.0e6;
};

/// Which way application data flows through the circuit.
enum class TransferDirection : std::uint8_t {
  kDownload,  ///< server -> exit -> middle -> guard -> client (e.g. wget)
  kUpload,    ///< client -> ... -> server (e.g. a file upload to a dropbox)
};

/// Bytes-on-the-wire inflation when the stream enters Tor (cell framing:
/// 514-byte cells carrying 498 payload bytes).
inline constexpr double kCellOverhead = 514.0 / 498.0;
/// Cross-traffic rate modulation: each link's available rate is scaled by
/// a factor drawn uniformly in [1-spread, 1+spread], redrawn every
/// interval (flow_sim.cpp). This gives every transfer the per-interval
/// throughput structure that real wide-area flows exhibit — the very
/// structure end-to-end correlation attacks key on.
inline constexpr double kRateModulationSpread = 0.35;
/// Safety cap on simulated time.
inline constexpr double kMaxSimTimeS = 600.0;

/// One transfer. Every connection runs TcpParams{}; per-hop flow control
/// and the modulation interval are fixed (flow_sim.cpp).
struct FlowSimParams {
  std::uint64_t file_bytes = 40ull << 20;  ///< the paper's ~40 MB download
  TransferDirection direction = TransferDirection::kDownload;
  /// Links in circuit order: [0] client-guard, [1] guard-middle,
  /// [2] middle-exit, [3] exit-server.
  std::array<LinkParams, 4> links{{
      {0.030, 0.042, 5.0e6},   // client <-> guard
      {0.024, 0.020, 3.2e6},   // guard <-> middle
      {0.034, 0.029, 2.8e6},   // middle <-> exit
      {0.020, 0.027, 1.5e6},   // exit <-> server (bottleneck)
  }};
  /// When the transfer begins (lets a population of flows start at
  /// staggered times, as real clients do).
  double start_time_s = 0.0;
  std::uint64_t seed = 2014;
};

/// What the two taps captured, plus transfer-level stats.
struct FlowTraces {
  SegmentTap client_guard;  ///< a = client, b = guard
  SegmentTap exit_server;   ///< a = exit, b = server
  double completion_time_s = 0;  ///< when the last payload byte arrived
  std::uint64_t delivered_bytes = 0;  ///< payload delivered to the receiver
};

/// Runs the transfer to completion (or the time cap) and returns the taps.
/// Throws std::invalid_argument for a zero-byte file or non-positive rates.
[[nodiscard]] FlowTraces SimulateTransfer(const FlowSimParams& params);

}  // namespace quicksand::traffic
