#include "bgp/path.hpp"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <stdexcept>
#include <unordered_set>

namespace quicksand::bgp {

bool AsPath::Contains(AsNumber as) const noexcept {
  return std::find(hops_.begin(), hops_.end(), as) != hops_.end();
}

bool AsPath::HasLoop() const {
  std::unordered_set<AsNumber> seen;
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    if (i > 0 && hops_[i] == hops_[i - 1]) continue;  // contiguous prepend
    if (!seen.insert(hops_[i]).second) return true;
  }
  return false;
}

std::vector<AsNumber> AsPath::DistinctAses() const {
  // Paths are a handful of hops: scanning the ASes kept so far is cheaper
  // than hashing every hop.
  std::vector<AsNumber> out;
  out.reserve(hops_.size());
  for (AsNumber as : hops_) {
    if (std::find(out.begin(), out.end(), as) == out.end()) out.push_back(as);
  }
  return out;
}

AsPath AsPath::Prepend(AsNumber as) const {
  std::vector<AsNumber> hops;
  hops.reserve(hops_.size() + 1);
  hops.push_back(as);
  hops.insert(hops.end(), hops_.begin(), hops_.end());
  return AsPath(std::move(hops));
}

std::optional<AsPath> AsPath::Parse(std::string_view text) {
  std::vector<AsNumber> hops;
  const char* cursor = text.data();
  const char* const end = text.data() + text.size();
  while (cursor != end) {
    while (cursor != end && *cursor == ' ') ++cursor;
    if (cursor == end) break;
    AsNumber asn = 0;
    auto [ptr, ec] = std::from_chars(cursor, end, asn);
    if (ec != std::errc{} || ptr == cursor) return std::nullopt;
    hops.push_back(asn);
    cursor = ptr;
    if (cursor != end && *cursor != ' ') return std::nullopt;
  }
  return AsPath(std::move(hops));
}

AsPath AsPath::MustParse(std::string_view text) {
  auto parsed = Parse(text);
  if (!parsed) throw std::invalid_argument("invalid AS path: '" + std::string(text) + "'");
  return *parsed;
}

std::string AsPath::ToString() const {
  std::string out;
  for (std::size_t i = 0; i < hops_.size(); ++i) {
    if (i > 0) out.push_back(' ');
    out += std::to_string(hops_[i]);
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const AsPath& path) {
  return os << path.ToString();
}

}  // namespace quicksand::bgp
