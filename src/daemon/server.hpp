#pragma once

// Minimal AF_UNIX transport for quicksandd's query protocol.
//
// One blocking listener, one connection at a time, frames in / frames
// out — deliberately the smallest server that exercises the real wire
// path (socket reads of arbitrary chunking into FrameReader, framed
// responses back). The daemon's concurrency story lives in the ingest
// and supervisor layers, not here; a resident deployment that needs
// parallel query serving puts a thread per connection around the same
// HandleConnection body.
//
// Deadline semantics: every decoded frame is stamped with its arrival
// time and granted config().query_deadline_s; a frame picked up after
// its grant (it sat behind a burst on the same connection) is rejected
// by Daemon::HandleRequest with "err deadline" rather than served stale.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "daemon/quicksandd.hpp"
#include "util/fd_guard.hpp"

namespace quicksand::daemon {

/// Returns the daemon's time in seconds; the server never reads wall time
/// directly, so tests can drive it on simulated time.
using NowFn = std::function<std::int64_t()>;

class UnixSocketServer {
 public:
  /// Binds and listens on `path` (unlinking any stale socket first).
  /// Throws std::runtime_error on socket/bind/listen failure.
  explicit UnixSocketServer(std::string path);

  ~UnixSocketServer();
  UnixSocketServer(const UnixSocketServer&) = delete;
  UnixSocketServer& operator=(const UnixSocketServer&) = delete;

  /// Accepts one connection and serves it to EOF (or protocol error).
  /// Returns frames served. Blocking.
  std::size_t ServeOne(Daemon& daemon, const NowFn& now);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::size_t HandleConnection(int fd, Daemon& daemon, const NowFn& now);

  std::string path_;
  util::FdGuard listen_fd_;
};

/// Client helper: connects to `path`, sends each request as one frame,
/// and returns the framed responses in order. Throws std::runtime_error
/// on connect/I/O failure or response framing errors.
[[nodiscard]] std::vector<std::string> QueryUnixSocket(
    const std::string& path, const std::vector<std::string>& requests);

}  // namespace quicksand::daemon
