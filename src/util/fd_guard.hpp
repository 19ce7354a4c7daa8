#pragma once

// RAII ownership of a POSIX file descriptor.
//
// The daemon's Unix-socket server (src/daemon/server.cpp) holds its
// listening and accepted sockets in these guards, so no exit path leaks
// one — including exceptions thrown between socket() and the point the
// server takes ownership (bind/listen failures, allocation failures in
// error-message formatting). Manual close() calls on each branch rot;
// this guard makes the closed state structural.

#include <unistd.h>

#include <utility>

namespace quicksand::util {

/// Owns one fd; closes it on destruction unless released. Move-only.
class FdGuard {
 public:
  FdGuard() noexcept = default;
  explicit FdGuard(int fd) noexcept : fd_(fd) {}

  FdGuard(FdGuard&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  FdGuard& operator=(FdGuard&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }

  FdGuard(const FdGuard&) = delete;
  FdGuard& operator=(const FdGuard&) = delete;

  ~FdGuard() { Close(); }

  [[nodiscard]] int get() const noexcept { return fd_; }
  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// Closes now (idempotent). EINTR on close is not retried: POSIX leaves
  /// the fd state unspecified and Linux always releases it.
  void Close() noexcept {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

}  // namespace quicksand::util
