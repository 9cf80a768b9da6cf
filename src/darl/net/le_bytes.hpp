// darl/net/le_bytes.hpp — private to darl/net (frame.cpp, wire.cpp).
//
// The one little-endian field codec of the transport. The frame header
// and the binary Weights and Batch payloads (DESIGN.md §17) put and get
// every fixed-width field through these helpers; a double crosses as its
// IEEE-754 bits, so NaN payloads, the sign of zero and subnormals arrive
// exactly as sent. darl builds for little-endian hosts only, so a field's
// wire bytes are its memory bytes and whole arrays copy in one memcpy.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace darl::net::le {

static_assert(std::endian::native == std::endian::little,
              "the darl wire is little-endian and copies fields as memory");
static_assert(sizeof(double) == 8, "doubles cross the wire as 8-byte IEEE-754");

inline void put_u32(unsigned char* out, std::uint32_t v) {
  std::memcpy(out, &v, sizeof(v));
}

inline void put_u64(unsigned char* out, std::uint64_t v) {
  std::memcpy(out, &v, sizeof(v));
}

inline std::uint32_t get_u32(const unsigned char* in) {
  std::uint32_t v;
  std::memcpy(&v, in, sizeof(v));
  return v;
}

inline std::uint64_t get_u64(const unsigned char* in) {
  std::uint64_t v;
  std::memcpy(&v, in, sizeof(v));
  return v;
}

inline void put_f64(unsigned char* out, double v) {
  std::memcpy(out, &v, sizeof(v));
}

inline double get_f64(const unsigned char* in) {
  double v;
  std::memcpy(&v, in, sizeof(v));
  return v;
}

/// `n` doubles as `8 * n` bytes of their bits, and back.
inline void put_f64s(unsigned char* out, const double* v, std::size_t n) {
  if (n > 0) std::memcpy(out, v, n * sizeof(double));
}

inline void get_f64s(const unsigned char* in, double* v, std::size_t n) {
  if (n > 0) std::memcpy(v, in, n * sizeof(double));
}

}  // namespace darl::net::le
