// darl/net/socket.hpp
//
// The repo's single home for raw POSIX socket handling (DESIGN.md §17).
// Everything here is transport-only: fd lifetime (OwnedFd), loopback
// TCP / Unix-domain listeners, non-blocking connect with a deadline and
// retry-with-backoff, and partial-read / short-write loops that retry
// EINTR and never raise SIGPIPE (every send uses MSG_NOSIGNAL). The
// obs::Exporter and the darl/net frame layer are both built on these
// helpers, so listen/accept/deadline-read exists in exactly one place —
// a darl_lint rule (`naked-socket-call`) rejects raw recv/send/accept
// anywhere outside src/darl/net.
//
// This header intentionally has no dependency on darl/obs (the exporter
// links it), so transport metrics live one layer up in net::MsgChannel.

#pragma once

#include <cstddef>
#include <string>
#include <utility>

#include "darl/common/error.hpp"

namespace darl::net {

/// Raised on transport-level failures (connect refused past the deadline,
/// bind/listen errors, send to a vanished peer).
class NetError : public Error {
 public:
  explicit NetError(const std::string& what_arg) : Error(what_arg) {}
};

/// A parsed transport address: `tcp:PORT` (loopback; 0 = ephemeral) or
/// `unix:/path/to.sock`.
struct Endpoint {
  enum class Kind { Tcp, Unix };
  Kind kind = Kind::Tcp;
  int port = 0;       ///< Tcp only
  std::string path;   ///< Unix only

  /// Parse "tcp:PORT" or "unix:PATH"; throws InvalidArgument otherwise.
  static Endpoint parse(const std::string& text);
  /// Canonical string form ("tcp:8080", "unix:/tmp/x.sock").
  std::string str() const;
};

/// RAII file descriptor (close-on-destroy, move-only).
class OwnedFd {
 public:
  OwnedFd() = default;
  explicit OwnedFd(int fd) : fd_(fd) {}
  ~OwnedFd() { reset(); }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;
  OwnedFd(OwnedFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  OwnedFd& operator=(OwnedFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  explicit operator bool() const { return valid(); }
  /// Close the held fd (if any) and take ownership of `fd`.
  void reset(int fd = -1);
  /// Release ownership without closing.
  int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// A listening socket. For Unix endpoints the path is unlinked when the
/// listener is destroyed. endpoint() reports the *bound* address (an
/// ephemeral tcp:0 request resolves to the assigned port).
class Listener {
 public:
  Listener() = default;
  Listener(OwnedFd fd, Endpoint bound) : fd_(std::move(fd)), bound_(std::move(bound)) {}
  ~Listener();
  Listener(Listener&&) noexcept = default;
  Listener& operator=(Listener&& other) noexcept;

  int fd() const { return fd_.get(); }
  bool valid() const { return fd_.valid(); }
  const Endpoint& endpoint() const { return bound_; }

  /// Unblock a concurrent accept() (used for shutdown); safe to call twice.
  void shutdown();

 private:
  OwnedFd fd_;
  Endpoint bound_;
};

/// Bind + listen on `ep` (TCP binds 127.0.0.1 only). Throws NetError.
Listener listen_endpoint(const Endpoint& ep, int backlog = 16);

/// Accept one connection, retrying EINTR. Returns an invalid OwnedFd when
/// the listener was shut down or the listening socket is gone (errno is
/// preserved for diagnostics); never throws.
OwnedFd accept_retry(int listen_fd);

/// Connect to `ep` with a total deadline: non-blocking connect polled to
/// completion, retried with exponential backoff while the peer is not yet
/// listening (ECONNREFUSED / ENOENT — the actor-before-learner race).
/// Throws NetError when the deadline lapses.
OwnedFd connect_endpoint(const Endpoint& ep, double deadline_s = 10.0);

/// Bound both recv and send with a per-syscall timeout.
void set_io_timeout(int fd, double seconds);
/// Receive timeout only, clamped away from zero (a zero timeval means
/// "block forever", the opposite of what a lapsed deadline wants).
void set_recv_timeout(int fd, double seconds);

/// Outcome classification of a read: clean EOF is not an error.
enum class IoStatus { Ok, Eof, TimedOut, Error };

struct IoResult {
  IoStatus status = IoStatus::Ok;
  std::size_t n = 0;  ///< bytes actually transferred
  int err = 0;        ///< errno when status is Error / TimedOut
};

/// One recv of at most `cap` bytes, retrying EINTR. Ok with n > 0, Eof on
/// peer close, TimedOut on a receive-timeout expiry, Error otherwise.
IoResult recv_some(int fd, void* buf, std::size_t cap);

/// Partial-read loop for exactly `n` bytes. Ok when all arrived; Eof when
/// the peer closed first (result.n tells how many bytes did arrive, so the
/// caller can distinguish a clean close at a message boundary, n == 0,
/// from mid-message truncation); TimedOut / Error as recv_some. With
/// `timeout_s` > 0 the whole read must finish within that many seconds:
/// each recv waits at most the time left, so a peer that trickles bytes
/// times out like a silent one.
IoResult recv_exact(int fd, void* buf, std::size_t n, double timeout_s = 0);

/// Short-write loop with MSG_NOSIGNAL (a reset peer yields an error return
/// here, never SIGPIPE), retrying EINTR. Returns Ok or Error/TimedOut.
IoResult send_all(int fd, const void* buf, std::size_t n);
IoResult send_all(int fd, const std::string& data);

/// Drain until EOF (HTTP/1.0-style responses). Stops early on a receive
/// timeout and returns what arrived.
std::string recv_until_eof(int fd);

}  // namespace darl::net
