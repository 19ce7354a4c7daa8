#pragma once

// Packet traces and tap series — what an eavesdropping AS records.
//
// A SegmentTap is the tcpdump-equivalent view of one link (e.g. the
// client<->guard access link), split by direction. Series extractors turn
// a trace into the time-binned byte counts the correlation attack consumes:
// payload bytes for the data direction, *newly acknowledged* bytes (deltas
// of the cumulative ACK field read from cleartext TCP headers) for the
// reverse direction.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace quicksand::traffic {

/// One captured packet (only fields an on-path AS can read).
struct PacketRecord {
  double time_s = 0;
  std::uint32_t payload_bytes = 0;    ///< TCP payload length (0 for pure ACKs)
  std::uint64_t cumulative_ack = 0;   ///< ACK field (cumulative bytes)
  bool has_ack = false;               ///< ACK flag set
};

/// Both directions of one observed link.
struct SegmentTap {
  std::string name;                  ///< e.g. "client<->guard"
  std::vector<PacketRecord> a_to_b;  ///< e.g. client -> guard
  std::vector<PacketRecord> b_to_a;  ///< e.g. guard -> client
};

/// Payload bytes per bin over [0, duration). Records outside it (and
/// records with a NaN time) are dropped. Throws std::invalid_argument
/// unless bin_s and duration_s are positive and finite and the window
/// holds no more bins than a vector can.
[[nodiscard]] std::vector<double> DataBytesBinned(std::span<const PacketRecord> packets,
                                                  double bin_s, double duration_s);

/// Newly acknowledged bytes per bin: per-bin increase of the maximum
/// cumulative ACK seen in packets with the ACK flag. Same window and
/// argument checks as DataBytesBinned.
[[nodiscard]] std::vector<double> AckedBytesBinned(std::span<const PacketRecord> packets,
                                                   double bin_s, double duration_s);

/// Running sum of a binned series, scaled to megabytes — the Figure 2
/// (right) plotting transform.
[[nodiscard]] std::vector<double> CumulativeMegabytes(std::span<const double> binned);

/// Total payload bytes in a trace.
[[nodiscard]] std::uint64_t TotalPayloadBytes(std::span<const PacketRecord> packets) noexcept;

/// Final (maximum) cumulative ACK value in a trace.
[[nodiscard]] std::uint64_t FinalAckedBytes(std::span<const PacketRecord> packets) noexcept;

}  // namespace quicksand::traffic
