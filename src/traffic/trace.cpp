#include "traffic/trace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace quicksand::traffic {

namespace {

/// Bins covering [0, duration_s): at least one, no more than a vector holds.
std::size_t BinCount(double bin_s, double duration_s) {
  if (!std::isfinite(bin_s) || !std::isfinite(duration_s) || bin_s <= 0 ||
      duration_s <= 0) {
    throw std::invalid_argument(
        "trace binning: bin and duration must be positive and finite");
  }
  const double bins = std::max(1.0, std::ceil(duration_s / bin_s));
  if (!(bins < static_cast<double>(std::vector<double>().max_size()))) {
    throw std::invalid_argument("trace binning: too many bins to allocate");
  }
  return static_cast<std::size_t>(bins);
}

/// The bin of a time inside [0, duration): just short of a window that
/// ends on a bin boundary, the quotient can round up to the bin count.
std::size_t BinOf(double time_s, double bin_s, std::size_t bins) {
  return std::min(static_cast<std::size_t>(time_s / bin_s), bins - 1);
}

}  // namespace

std::vector<double> DataBytesBinned(std::span<const PacketRecord> packets, double bin_s,
                                    double duration_s) {
  std::vector<double> bins(BinCount(bin_s, duration_s), 0.0);
  for (const PacketRecord& p : packets) {
    if (!(p.time_s >= 0 && p.time_s < duration_s)) continue;
    bins[BinOf(p.time_s, bin_s, bins.size())] += p.payload_bytes;
  }
  return bins;
}

std::vector<double> AckedBytesBinned(std::span<const PacketRecord> packets, double bin_s,
                                     double duration_s) {
  std::vector<double> bins(BinCount(bin_s, duration_s), 0.0);
  std::uint64_t high_water = 0;
  for (const PacketRecord& p : packets) {
    if (!p.has_ack) continue;
    if (!(p.time_s >= 0 && p.time_s < duration_s)) continue;
    if (p.cumulative_ack <= high_water) continue;
    bins[BinOf(p.time_s, bin_s, bins.size())] +=
        static_cast<double>(p.cumulative_ack - high_water);
    high_water = p.cumulative_ack;
  }
  return bins;
}

std::vector<double> CumulativeMegabytes(std::span<const double> binned) {
  std::vector<double> out;
  out.reserve(binned.size());
  double total = 0;
  for (double v : binned) {
    total += v;
    out.push_back(total / (1024.0 * 1024.0));
  }
  return out;
}

std::uint64_t TotalPayloadBytes(std::span<const PacketRecord> packets) noexcept {
  std::uint64_t total = 0;
  for (const PacketRecord& p : packets) total += p.payload_bytes;
  return total;
}

std::uint64_t FinalAckedBytes(std::span<const PacketRecord> packets) noexcept {
  std::uint64_t high_water = 0;
  for (const PacketRecord& p : packets) {
    if (p.has_ack) high_water = std::max(high_water, p.cumulative_ack);
  }
  return high_water;
}

}  // namespace quicksand::traffic
