#pragma once

// Fail-closed numeric parsing for untrusted text: CLI values, environment
// hooks, config files, wire-adjacent escapes.
//
// std::strtol silently returns 0 on garbage and std::stoi throws bare
// std::invalid_argument with no context — both have bitten this codebase
// (a typo'd QUICKSAND_DAEMON_KILL_AFTER silently disabling the chaos
// hook, malformed \u escapes crashing the trace reader). These helpers
// parse the *whole* string or fail, and the throwing variants say what
// was being parsed and why it was rejected.
//
// Header-only and dependency-free (like util/atomic_file.hpp) so every
// layer can use it, including obs, which sits below util in the link
// graph.

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace quicksand::util {

/// Parses all of `text` as a base-`base` signed integer. Empty input,
/// trailing junk, or out-of-range values return nullopt — never a
/// partial value.
[[nodiscard]] inline std::optional<std::int64_t> ParseI64(std::string_view text,
                                                          int base = 10) {
  if (text.empty()) return std::nullopt;
  const std::string owned(text);  // strtoll needs a terminator
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(owned.c_str(), &end, base);
  if (errno == ERANGE || end == owned.c_str() || *end != '\0') return std::nullopt;
  return static_cast<std::int64_t>(value);
}

/// Unsigned counterpart of ParseI64. A leading '-' is rejected outright
/// (strtoull would silently wrap it around).
[[nodiscard]] inline std::optional<std::uint64_t> ParseU64(std::string_view text,
                                                           int base = 10) {
  if (text.empty()) return std::nullopt;
  // Reject a minus sign even behind strtoull's skipped whitespace — it
  // would otherwise wrap "-1" to UINT64_MAX.
  std::size_t first = 0;
  while (first < text.size() &&
         std::isspace(static_cast<unsigned char>(text[first])) != 0) {
    ++first;
  }
  if (first == text.size() || text[first] == '-') return std::nullopt;
  const std::string owned(text);
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(owned.c_str(), &end, base);
  if (errno == ERANGE || end == owned.c_str() || *end != '\0') return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

/// Parses all of `text` as a finite double (strtod grammar, whole-string).
/// "nan" and "inf", which strtod accepts, return nullopt: a NaN slips past
/// every range check written as `x < lo || x > hi`.
[[nodiscard]] inline std::optional<double> ParseF64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  const std::string owned(text);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  if (errno == ERANGE || end == owned.c_str() || *end != '\0') return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

/// Reads an integer environment hook. Unset returns `fallback`; a set but
/// malformed value throws std::runtime_error naming the variable — an env
/// hook that silently parses as 0 is a chaos test that silently stopped
/// testing anything.
[[nodiscard]] inline std::int64_t EnvInt64(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const std::optional<std::int64_t> value = ParseI64(raw);
  if (!value.has_value()) {
    throw std::runtime_error(std::string(name) + ": invalid integer value '" +
                             raw + "'");
  }
  return *value;
}

}  // namespace quicksand::util
