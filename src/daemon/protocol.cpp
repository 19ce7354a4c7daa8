#include "daemon/protocol.hpp"

#include <charconv>

#include "obs/metrics.hpp"

namespace quicksand::daemon {

namespace {

std::uint32_t GetU32le(const std::string& bytes, std::size_t at) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 1])) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 2])) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 3])) << 24);
}

/// Splits `text` on single spaces into non-empty tokens.
std::vector<std::string_view> Tokens(std::string_view text) {
  std::vector<std::string_view> out;
  std::size_t at = 0;
  while (at < text.size()) {
    const std::size_t space = text.find(' ', at);
    const std::size_t end = space == std::string_view::npos ? text.size() : space;
    if (end > at) out.push_back(text.substr(at, end - at));
    at = end + 1;
  }
  return out;
}

template <typename Int>
bool ParseInt(std::string_view token, Int& out) {
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc{} && ptr == token.data() + token.size();
}

Request Invalid(std::string error) {
  Request request;
  request.kind = RequestKind::kInvalid;
  request.error = std::move(error);
  return request;
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  std::string out;
  out.reserve(payload.size() + 4);
  const auto length = static_cast<std::uint32_t>(payload.size());
  out.push_back(static_cast<char>(length & 0xFF));
  out.push_back(static_cast<char>((length >> 8) & 0xFF));
  out.push_back(static_cast<char>((length >> 16) & 0xFF));
  out.push_back(static_cast<char>((length >> 24) & 0xFF));
  out.append(payload);
  return out;
}

void FrameReader::Feed(std::string_view chunk) {
  if (error_) return;
  buffer_.append(chunk);
  // Validate the length header as soon as 4 bytes exist, not when the
  // whole frame arrives: fail closed before buffering a poisoned body.
  if (buffer_.size() >= 4) {
    const std::uint32_t length = GetU32le(buffer_, 0);
    if (length > kMaxFrameBytes) {
      error_ = true;
      error_detail_ = "frame length " + std::to_string(length) + " exceeds cap " +
                      std::to_string(kMaxFrameBytes);
      buffer_.clear();
      obs::MetricsRegistry::Global()
          .GetCounter("daemon.proto.oversized_frames", obs::Stability::kRun)
          .Increment();
    }
  }
}

bool FrameReader::Next(std::string& payload) {
  if (error_ || buffer_.size() < 4) return false;
  const std::uint32_t length = GetU32le(buffer_, 0);
  if (buffer_.size() < 4 + static_cast<std::size_t>(length)) return false;
  payload.assign(buffer_, 4, length);
  buffer_.erase(0, 4 + static_cast<std::size_t>(length));
  // The next frame's header may already be buffered and oversized.
  if (buffer_.size() >= 4) {
    const std::uint32_t next_length = GetU32le(buffer_, 0);
    if (next_length > kMaxFrameBytes) {
      error_ = true;
      error_detail_ = "frame length " + std::to_string(next_length) +
                      " exceeds cap " + std::to_string(kMaxFrameBytes);
      buffer_.clear();
      obs::MetricsRegistry::Global()
          .GetCounter("daemon.proto.oversized_frames", obs::Stability::kRun)
          .Increment();
    }
  }
  return true;
}

Request ParseRequest(std::string_view payload) {
  const std::vector<std::string_view> tokens = Tokens(payload);
  if (tokens.empty()) return Invalid("empty request");
  Request request;
  const std::string_view verb = tokens[0];

  if (verb == "ping") {
    if (tokens.size() != 1) return Invalid("ping takes no arguments");
    request.kind = RequestKind::kPing;
    return request;
  }
  if (verb == "health") {
    if (tokens.size() != 1) return Invalid("health takes no arguments");
    request.kind = RequestKind::kHealth;
    return request;
  }
  if (verb == "alerts") {
    if (tokens.size() != 2) return Invalid("usage: alerts <since_s>");
    std::int64_t since = 0;
    if (!ParseInt(tokens[1], since) || since < 0) {
      return Invalid("alerts: bad since_s '" + std::string(tokens[1]) + "'");
    }
    request.kind = RequestKind::kAlerts;
    request.alerts_since_s = since;
    return request;
  }
  if (verb == "exposure") {
    if (tokens.size() < 3) {
      return Invalid("usage: exposure <client_as> <prefix> [<prefix>...]");
    }
    bgp::AsNumber client = 0;
    if (!ParseInt(tokens[1], client) || client == 0) {
      return Invalid("exposure: bad client AS '" + std::string(tokens[1]) + "'");
    }
    request.kind = RequestKind::kExposure;
    request.client_as = client;
    for (std::size_t i = 2; i < tokens.size(); ++i) {
      const std::optional<netbase::Prefix> prefix = netbase::Prefix::Parse(tokens[i]);
      if (!prefix) {
        return Invalid("exposure: bad prefix '" + std::string(tokens[i]) + "'");
      }
      request.prefixes.push_back(*prefix);
    }
    return request;
  }
  return Invalid("unknown verb '" + std::string(verb) + "'");
}

std::string ErrResponse(std::string_view reason) {
  return "err " + std::string(reason);
}

std::string OkResponse(std::string_view body) {
  std::string out = "ok";
  if (!body.empty()) {
    out += ' ';
    out += body;
  }
  return out;
}

}  // namespace quicksand::daemon
