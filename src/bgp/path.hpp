#pragma once

// AS numbers and AS-PATH values.
//
// An AsPath is the sequence of ASes a route advertisement has traversed,
// ordered from the announcing AS (front) to the origin AS (back) — the same
// order BGP puts on the wire. Prepending shows up as repeated origin
// entries; `DistinctAses` collapses repetition, which is what the paper's
// "set of ASes crossed" path-change definition needs.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace quicksand::bgp {

/// An Autonomous System number.
using AsNumber = std::uint32_t;

/// An AS-PATH: front() is the most recent AS, back() is the origin.
class AsPath {
 public:
  AsPath() = default;
  explicit AsPath(std::vector<AsNumber> hops) : hops_(std::move(hops)) {}
  AsPath(std::initializer_list<AsNumber> hops) : hops_(hops) {}

  [[nodiscard]] bool empty() const noexcept { return hops_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return hops_.size(); }
  [[nodiscard]] AsNumber front() const { return hops_.front(); }
  /// The origin AS (last hop). Requires a non-empty path.
  [[nodiscard]] AsNumber origin() const { return hops_.back(); }
  [[nodiscard]] const std::vector<AsNumber>& hops() const noexcept { return hops_; }

  [[nodiscard]] auto begin() const noexcept { return hops_.begin(); }
  [[nodiscard]] auto end() const noexcept { return hops_.end(); }

  /// True iff `as` appears anywhere on the path.
  [[nodiscard]] bool Contains(AsNumber as) const noexcept;

  /// True iff the path contains a repeated AS *not* due to contiguous
  /// prepending — the classical loop check.
  [[nodiscard]] bool HasLoop() const;

  /// The distinct ASes on the path, in first-appearance order.
  [[nodiscard]] std::vector<AsNumber> DistinctAses() const;

  /// Path length counting prepends (plain hop count).
  [[nodiscard]] std::size_t Length() const noexcept { return hops_.size(); }

  /// Returns a new path with `as` prepended at the front (as an AS does
  /// when propagating the route).
  [[nodiscard]] AsPath Prepend(AsNumber as) const;

  /// Parses a space-separated list of ASNs, e.g. "701 3356 24940".
  /// Returns nullopt on syntax errors. An empty string is the empty path.
  [[nodiscard]] static std::optional<AsPath> Parse(std::string_view text);

  /// Parse or throw std::invalid_argument.
  [[nodiscard]] static AsPath MustParse(std::string_view text);

  /// Formats as a space-separated ASN list.
  [[nodiscard]] std::string ToString() const;

  friend bool operator==(const AsPath&, const AsPath&) = default;

 private:
  std::vector<AsNumber> hops_;
};

std::ostream& operator<<(std::ostream& os, const AsPath& path);

/// FNV-1a over a hop sequence: std::hash<AsPath>, and the key of
/// feed::AsPathTable's index.
[[nodiscard]] inline std::uint64_t HashHops(std::span<const AsNumber> hops) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const AsNumber hop : hops) {
    h ^= hop;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace quicksand::bgp

template <>
struct std::hash<quicksand::bgp::AsPath> {
  std::size_t operator()(const quicksand::bgp::AsPath& p) const noexcept {
    return quicksand::bgp::HashHops(p.hops());
  }
};
