// darl/net/frame.hpp
//
// Length-prefixed binary framing for the darl/net transport (DESIGN.md
// §17). Every message travels as one frame:
//
//   { magic u32, type u32, length u64, fnv1a64 u64 }  — 24-byte header,
//   little-endian, followed by `length` payload bytes.
//
// The digest is fnv1a64 over the payload bytes exactly as sent (the same
// integrity primitive as checkpoint format v2), so a bit-flipped or
// spliced payload fails with a typed FrameError instead of silently
// decoding garbage. read_frame() distinguishes a *clean* EOF at a frame
// boundary (the peer closed between messages — returns false) from
// truncation inside a header or payload (throws FrameError).

#pragma once

#include <cstdint>
#include <string>

#include "darl/net/socket.hpp"

namespace darl::net {

/// "DNET" little-endian.
inline constexpr std::uint32_t kFrameMagic = 0x54454E44u;
inline constexpr std::size_t kFrameHeaderBytes = 24;
/// Guard against a corrupt length field committing us to a huge read.
inline constexpr std::uint64_t kMaxFramePayload = 1ull << 28;  // 256 MiB

/// Raised on a malformed, truncated, oversized or digest-mismatched frame,
/// and on transport errors underneath a frame read/write.
class FrameError : public NetError {
 public:
  enum class Kind { Truncated, BadMagic, BadDigest, TooLarge, TimedOut, Io };

  FrameError(Kind kind, const std::string& what_arg)
      : NetError(what_arg), kind_(kind) {}
  Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

/// One decoded frame.
struct Frame {
  std::uint32_t type = 0;
  std::string payload;
};

/// Encode a header into exactly kFrameHeaderBytes at `out` (test seam).
void encode_frame_header(std::uint32_t type, const std::string& payload,
                         unsigned char* out);

/// Send one frame (header + payload) with short-write handling. Throws
/// FrameError(Io / TimedOut) when the peer is gone or the send timeout
/// lapses, FrameError(TooLarge) for an oversized payload.
void write_frame(int fd, std::uint32_t type, const std::string& payload);

/// Block for the next frame. Returns false on a clean EOF at a frame
/// boundary; throws FrameError for truncation mid-frame, a bad magic,
/// an oversized length, a digest mismatch, a receive timeout, or a
/// transport error. With `timeout_s` > 0 the whole frame, header and
/// payload, must arrive within that many seconds (FrameError TimedOut
/// otherwise), however the peer spreads its bytes; 0 leaves each recv to
/// the socket's own receive timeout.
bool read_frame(int fd, Frame& out, double timeout_s = 0);

}  // namespace darl::net
