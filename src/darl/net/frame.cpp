#include "darl/net/frame.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "darl/common/rng.hpp"
#include "darl/common/stopwatch.hpp"
#include "darl/net/le_bytes.hpp"

namespace darl::net {
namespace {

/// How much of a frame payload one read asks for, and so allocates ahead.
constexpr std::uint64_t kFrameReadChunk = 1ull << 20;

[[noreturn]] void throw_io(const IoResult& r, const char* what) {
  if (r.status == IoStatus::TimedOut) {
    throw FrameError(FrameError::Kind::TimedOut,
                     std::string("net: frame ") + what + " timed out");
  }
  throw FrameError(FrameError::Kind::Io,
                   std::string("net: frame ") + what + " failed: " +
                       std::strerror(r.err));
}

}  // namespace

void encode_frame_header(std::uint32_t type, const std::string& payload,
                         unsigned char* out) {
  le::put_u32(out, kFrameMagic);
  le::put_u32(out + 4, type);
  le::put_u64(out + 8, static_cast<std::uint64_t>(payload.size()));
  le::put_u64(out + 16, fnv1a64(payload));
}

void write_frame(int fd, std::uint32_t type, const std::string& payload) {
  if (payload.size() > kMaxFramePayload) {
    throw FrameError(FrameError::Kind::TooLarge,
                     "net: frame payload of " + std::to_string(payload.size()) +
                         " bytes exceeds the " +
                         std::to_string(kMaxFramePayload) + "-byte cap");
  }
  unsigned char header[kFrameHeaderBytes];
  encode_frame_header(type, payload, header);
  IoResult r = send_all(fd, header, sizeof(header));
  if (r.status != IoStatus::Ok) throw_io(r, "write");
  r = send_all(fd, payload);
  if (r.status != IoStatus::Ok) throw_io(r, "write");
}

bool read_frame(int fd, Frame& out, double timeout_s) {
  // One budget for the whole frame: each read gets what is left of it.
  const Stopwatch clock;
  const auto read = [&](void* buf, std::size_t n) {
    if (timeout_s <= 0.0) return recv_exact(fd, buf, n);
    const double left = timeout_s - clock.seconds();
    return left > 0.0 ? recv_exact(fd, buf, n, left)
                      : IoResult{IoStatus::TimedOut, 0, ETIMEDOUT};
  };

  unsigned char header[kFrameHeaderBytes];
  IoResult r = read(header, sizeof(header));
  if (r.status == IoStatus::Eof) {
    if (r.n == 0) return false;  // clean close between frames
    throw FrameError(FrameError::Kind::Truncated,
                     "net: peer closed mid-header (" + std::to_string(r.n) +
                         " of " + std::to_string(sizeof(header)) + " bytes)");
  }
  if (r.status != IoStatus::Ok) throw_io(r, "read");

  if (le::get_u32(header) != kFrameMagic) {
    throw FrameError(FrameError::Kind::BadMagic,
                     "net: bad frame magic (stream out of sync?)");
  }
  out.type = le::get_u32(header + 4);
  const std::uint64_t length = le::get_u64(header + 8);
  const std::uint64_t digest = le::get_u64(header + 16);
  if (length > kMaxFramePayload) {
    throw FrameError(FrameError::Kind::TooLarge,
                     "net: frame length " + std::to_string(length) +
                         " exceeds the " + std::to_string(kMaxFramePayload) +
                         "-byte cap");
  }

  // The payload grows as its bytes arrive, a chunk at a time, so a header
  // that claims more than the peer sends costs what arrived plus one
  // chunk, not the claimed length.
  out.payload.clear();
  std::size_t have = 0;
  while (have < length) {
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(length - have, kFrameReadChunk));
    out.payload.resize(have + chunk);
    r = read(out.payload.data() + have, chunk);
    if (r.status == IoStatus::Eof) {
      throw FrameError(FrameError::Kind::Truncated,
                       "net: peer closed mid-payload (" +
                           std::to_string(have + r.n) + " of " +
                           std::to_string(length) + " bytes)");
    }
    if (r.status != IoStatus::Ok) throw_io(r, "read");
    have += chunk;
  }
  if (fnv1a64(out.payload) != digest) {
    throw FrameError(FrameError::Kind::BadDigest,
                     "net: frame payload digest mismatch (type " +
                         std::to_string(out.type) + ", " +
                         std::to_string(length) + " bytes)");
  }
  return true;
}

}  // namespace darl::net
