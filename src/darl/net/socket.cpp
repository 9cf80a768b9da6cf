#include "darl/net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "darl/common/stopwatch.hpp"

namespace darl::net {
namespace {

std::string errno_text(int err) { return std::strerror(err); }

sockaddr_in loopback_addr(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return addr;
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  DARL_CHECK(path.size() < sizeof(addr.sun_path),
             "unix socket path too long (" << path.size() << " bytes): " << path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

/// One connect() attempt against an already-created non-blocking socket.
/// Returns 0 on success, or the failing errno.
int connect_once(int fd, const Endpoint& ep, double deadline_s) {
  int rc;
  if (ep.kind == Endpoint::Kind::Tcp) {
    const sockaddr_in addr = loopback_addr(ep.port);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } else {
    const sockaddr_un addr = unix_addr(ep.path);
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  }
  if (rc == 0) return 0;
  if (errno != EINPROGRESS && errno != EAGAIN) return errno;

  // Non-blocking connect in flight: poll for writability, then read the
  // final disposition from SO_ERROR.
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLOUT;
  const int timeout_ms = deadline_s > 0.0 ? static_cast<int>(deadline_s * 1e3) : 0;
  for (;;) {
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return errno;
    }
    if (pr == 0) return ETIMEDOUT;
    break;
  }
  int so_error = 0;
  socklen_t len = sizeof(so_error);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &so_error, &len) != 0) return errno;
  return so_error;
}

/// One wait of at most `seconds` for `fd` to have something to read:
/// true when a recv will not block (data, EOF or an error, which the recv
/// then reports), false when the wait lapsed or a signal cut it short.
bool poll_input(int fd, double seconds) {
  pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLIN;
  // Whole milliseconds, rounded up so that a short remainder still waits.
  const int timeout_ms = static_cast<int>(std::min(seconds, 1e6) * 1e3) + 1;
  const int pr = ::poll(&pfd, 1, timeout_ms);
  return pr > 0 || (pr < 0 && errno != EINTR);
}

}  // namespace

Endpoint Endpoint::parse(const std::string& text) {
  Endpoint ep;
  if (text.rfind("tcp:", 0) == 0) {
    ep.kind = Kind::Tcp;
    const std::string port_text = text.substr(4);
    DARL_CHECK(!port_text.empty() &&
                   port_text.find_first_not_of("0123456789") == std::string::npos,
               "bad tcp endpoint '" << text << "' (want tcp:PORT)");
    ep.port = std::atoi(port_text.c_str());
    DARL_CHECK(ep.port >= 0 && ep.port <= 65535,
               "tcp port out of range in '" << text << "'");
    return ep;
  }
  if (text.rfind("unix:", 0) == 0) {
    ep.kind = Kind::Unix;
    ep.path = text.substr(5);
    DARL_CHECK(!ep.path.empty(), "empty unix socket path in '" << text << "'");
    return ep;
  }
  throw InvalidArgument("bad endpoint '" + text +
                        "' (want tcp:PORT or unix:/path)");
}

std::string Endpoint::str() const {
  return kind == Kind::Tcp ? "tcp:" + std::to_string(port) : "unix:" + path;
}

void OwnedFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

Listener::~Listener() {
  if (fd_.valid() && bound_.kind == Endpoint::Kind::Unix) {
    fd_.reset();  // close before unlink so a racing connect fails cleanly
    ::unlink(bound_.path.c_str());
  }
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    if (fd_.valid() && bound_.kind == Endpoint::Kind::Unix) {
      fd_.reset();
      ::unlink(bound_.path.c_str());
    }
    fd_ = std::move(other.fd_);
    bound_ = std::move(other.bound_);
  }
  return *this;
}

void Listener::shutdown() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
}

Listener listen_endpoint(const Endpoint& ep, int backlog) {
  const int domain = ep.kind == Endpoint::Kind::Tcp ? AF_INET : AF_UNIX;
  OwnedFd fd(::socket(domain, SOCK_STREAM, 0));
  if (!fd.valid()) {
    throw NetError("net: socket() failed: " + errno_text(errno));
  }

  Endpoint bound = ep;
  if (ep.kind == Endpoint::Kind::Tcp) {
    const int one = 1;
    ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    const sockaddr_in addr = loopback_addr(ep.port);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw NetError("net: bind(127.0.0.1:" + std::to_string(ep.port) +
                     ") failed: " + errno_text(errno));
    }
  } else {
    // A stale socket file from a crashed previous run would make bind fail
    // with EADDRINUSE even though nobody is listening.
    ::unlink(ep.path.c_str());
    const sockaddr_un addr = unix_addr(ep.path);
    if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw NetError("net: bind(" + ep.path + ") failed: " + errno_text(errno));
    }
  }
  if (::listen(fd.get(), backlog) != 0) {
    throw NetError("net: listen(" + ep.str() + ") failed: " + errno_text(errno));
  }
  if (ep.kind == Endpoint::Kind::Tcp) {
    sockaddr_in resolved{};
    socklen_t len = sizeof(resolved);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&resolved), &len) == 0) {
      bound.port = static_cast<int>(ntohs(resolved.sin_port));
    }
  }
  return Listener(std::move(fd), std::move(bound));
}

OwnedFd accept_retry(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return OwnedFd(fd);
    if (errno == EINTR) continue;
    return OwnedFd();  // shut down or unrecoverable; errno preserved
  }
}

OwnedFd connect_endpoint(const Endpoint& ep, double deadline_s) {
  const int domain = ep.kind == Endpoint::Kind::Tcp ? AF_INET : AF_UNIX;
  Stopwatch clock;
  double backoff_s = 0.02;
  int last_err = 0;
  for (;;) {
    const double remaining = deadline_s - clock.seconds();
    if (remaining <= 0.0) break;
    OwnedFd fd(::socket(domain, SOCK_STREAM | SOCK_NONBLOCK, 0));
    if (!fd.valid()) {
      throw NetError("net: socket() failed: " + errno_text(errno));
    }
    last_err = connect_once(fd.get(), ep, remaining);
    if (last_err == 0) {
      // Back to blocking mode: the frame layer uses timeouts, not O_NONBLOCK.
      const int flags = ::fcntl(fd.get(), F_GETFL, 0);
      if (flags >= 0) ::fcntl(fd.get(), F_SETFL, flags & ~O_NONBLOCK);
      return fd;
    }
    // The peer not listening yet is the expected startup race; everything
    // else (including a lapsed poll) is also worth one more try until the
    // deadline, with exponential backoff to avoid a connect() busy loop.
    fd.reset();
    const double nap = std::min(backoff_s, deadline_s - clock.seconds());
    if (nap > 0.0) {
      timespec ts{};
      ts.tv_sec = static_cast<time_t>(nap);
      ts.tv_nsec = static_cast<long>((nap - static_cast<double>(ts.tv_sec)) * 1e9);
      while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
      }
    }
    backoff_s = std::min(backoff_s * 2.0, 0.5);
  }
  throw NetError("net: connect(" + ep.str() + ") failed after " +
                 std::to_string(deadline_s) + "s: " + errno_text(last_err));
}

void set_io_timeout(int fd, double seconds) {
  if (seconds < 0.0) seconds = 0.0;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void set_recv_timeout(int fd, double seconds) {
  constexpr double kMinTimeout = 0.01;
  if (seconds < kMinTimeout) seconds = kMinTimeout;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

IoResult recv_some(int fd, void* buf, std::size_t cap) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, cap, 0);
    if (n > 0) return {IoStatus::Ok, static_cast<std::size_t>(n), 0};
    if (n == 0) return {IoStatus::Eof, 0, 0};
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return {IoStatus::TimedOut, 0, errno};
    }
    return {IoStatus::Error, 0, errno};
  }
}

IoResult recv_exact(int fd, void* buf, std::size_t n, double timeout_s) {
  const Stopwatch clock;
  std::size_t got = 0;
  char* out = static_cast<char*>(buf);
  while (got < n) {
    if (timeout_s > 0.0) {
      const double left = timeout_s - clock.seconds();
      if (left <= 0.0) return {IoStatus::TimedOut, got, ETIMEDOUT};
      // A lapsed or interrupted wait goes round to read the clock again.
      if (!poll_input(fd, left)) continue;
    }
    IoResult r = recv_some(fd, out + got, n - got);
    if (r.status != IoStatus::Ok) {
      r.n = got;
      return r;
    }
    got += r.n;
  }
  return {IoStatus::Ok, got, 0};
}

IoResult send_all(int fd, const void* buf, std::size_t n) {
  const char* data = static_cast<const char*>(buf);
  std::size_t sent = 0;
  while (sent < n) {
    // MSG_NOSIGNAL: a reset peer must surface as EPIPE here, not kill the
    // worker process mid-campaign with SIGPIPE.
    const ssize_t w = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return {IoStatus::TimedOut, sent, errno};
      }
      return {IoStatus::Error, sent, errno};
    }
    sent += static_cast<std::size_t>(w);
  }
  return {IoStatus::Ok, sent, 0};
}

IoResult send_all(int fd, const std::string& data) {
  return send_all(fd, data.data(), data.size());
}

std::string recv_until_eof(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const IoResult r = recv_some(fd, buf, sizeof(buf));
    if (r.status != IoStatus::Ok) break;
    out.append(buf, r.n);
  }
  return out;
}

}  // namespace darl::net
