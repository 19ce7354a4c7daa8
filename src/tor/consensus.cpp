#include "tor/consensus.hpp"

#include <charconv>
#include <sstream>
#include <stdexcept>

namespace quicksand::tor {

namespace {

std::vector<std::string_view> SplitWords(std::string_view line) {
  std::vector<std::string_view> words;
  std::size_t start = 0;
  while (start < line.size()) {
    while (start < line.size() && line[start] == ' ') ++start;
    if (start >= line.size()) break;
    std::size_t end = start;
    while (end < line.size() && line[end] != ' ') ++end;
    words.push_back(line.substr(start, end - start));
    start = end;
  }
  return words;
}

template <typename T>
T ParseNumberOrThrow(std::string_view text, std::size_t line_number, const char* what) {
  T value{};
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw std::runtime_error("consensus line " + std::to_string(line_number) +
                             ": bad " + std::string(what) + " '" + std::string(text) + "'");
  }
  return value;
}

}  // namespace

void Consensus::BuildIndex() {
  guards_.clear();
  exits_.clear();
  guard_exits_.clear();
  for (const Relay& r : relays_) {
    if (r.IsGuard()) guards_.push_back(&r);
    if (r.IsExit()) exits_.push_back(&r);
    if (r.IsGuard() && r.IsExit()) guard_exits_.push_back(&r);
  }
}

std::uint64_t Consensus::TotalBandwidth() const noexcept {
  std::uint64_t total = 0;
  for (const Relay& r : relays_) total += r.bandwidth_kbs;
  return total;
}

std::string Consensus::ToText() const {
  std::string out = "consensus " + std::to_string(valid_after_.seconds) + "\n";
  for (const Relay& r : relays_) {
    out += "r ";
    out += r.nickname;
    out += ' ';
    out += r.address.ToString();
    out += ' ';
    out += std::to_string(r.or_port);
    out += ' ';
    out += std::to_string(r.bandwidth_kbs);
    const std::string flags = FlagsToString(r.flags);
    if (!flags.empty()) {
      out += ' ';
      out += flags;
    }
    out += '\n';
  }
  return out;
}

Consensus Consensus::Parse(std::string_view text) {
  std::vector<Relay> relays;
  netbase::SimTime valid_after{};
  bool header_seen = false;

  std::size_t line_number = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    ++line_number;
    auto end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    const bool last = end == text.size();
    start = end + 1;
    if (line.empty() || line.front() == '#') {
      if (last) break;
      continue;
    }
    const auto words = SplitWords(line);
    if (words[0] == "consensus") {
      if (header_seen || words.size() != 2) {
        throw std::runtime_error("consensus line " + std::to_string(line_number) +
                                 ": bad header");
      }
      valid_after.seconds =
          ParseNumberOrThrow<std::int64_t>(words[1], line_number, "valid-after");
      header_seen = true;
    } else if (words[0] == "r") {
      if (!header_seen) {
        throw std::runtime_error("consensus: relay line before header");
      }
      if (words.size() < 5) {
        throw std::runtime_error("consensus line " + std::to_string(line_number) +
                                 ": truncated relay entry");
      }
      Relay relay;
      relay.nickname = std::string(words[1]);
      const auto address = netbase::Ipv4Address::Parse(words[2]);
      if (!address) {
        throw std::runtime_error("consensus line " + std::to_string(line_number) +
                                 ": bad address '" + std::string(words[2]) + "'");
      }
      relay.address = *address;
      relay.or_port = ParseNumberOrThrow<std::uint16_t>(words[3], line_number, "port");
      relay.bandwidth_kbs =
          ParseNumberOrThrow<std::uint32_t>(words[4], line_number, "bandwidth");
      for (std::size_t i = 5; i < words.size(); ++i) {
        const RelayFlags flag = ParseFlag(words[i]);
        if (flag == 0) {
          throw std::runtime_error("consensus line " + std::to_string(line_number) +
                                   ": unknown flag '" + std::string(words[i]) + "'");
        }
        relay.flags |= flag;
      }
      relays.push_back(std::move(relay));
    } else {
      throw std::runtime_error("consensus line " + std::to_string(line_number) +
                               ": unknown record '" + std::string(words[0]) + "'");
    }
    if (last) break;
  }
  if (!header_seen) throw std::runtime_error("consensus: missing header");
  return Consensus(valid_after, std::move(relays));
}

}  // namespace quicksand::tor
