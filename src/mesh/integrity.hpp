// Per-payload transport integrity for the cycle engine.
//
// Every word the cycle engine routes or permutes can carry a 64-bit
// checksum computed at injection and verified at delivery. The checksum is
// a position-mixed splitmix64 fold over the payload's bytes:
//
//     h = XOR over 64-bit words i of  mix64(word_i ^ mix64(i + 1))
//
// mix64 is a bijection, so flipping any single bit of any word changes
// exactly one term of the fold — a single-bit in-transit flip (the
// FaultPlan p_corrupt model) is detected with certainty, not just with
// 1 - 2^-64 probability. Multi-bit flips within one word are likewise
// certain; only colliding flips across words could cancel, which the
// injector never produces.
//
// Checksums are computed only while a fault plan with p_corrupt > 0 is
// armed (or a paranoid audit asks for them), so fault-free runs charge and
// execute bit-identically to builds without this header.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "util/rng.hpp"

namespace meshsearch::mesh::integrity {

/// Position-mixed checksum of a trivially-copyable payload. A tail of
/// fewer than 8 bytes is zero-padded into its word.
template <typename T>
std::uint64_t payload_checksum(const T& value) {
  static_assert(std::is_trivially_copyable_v<T>,
                "checksummed payloads must be trivially copyable");
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  std::uint64_t h = 0;
  std::uint64_t i = 0;
  std::size_t off = 0;
  while (off < sizeof(T)) {
    std::uint64_t word = 0;
    const std::size_t n =
        sizeof(T) - off < 8 ? sizeof(T) - off : std::size_t{8};
    std::memcpy(&word, bytes + off, n);
    h ^= util::mix64(word ^ util::mix64(++i));
    off += 8;
  }
  return h;
}

/// Flip one bit of a payload in place (the in-transit corruption model).
/// `bit` is reduced modulo the payload's bit width.
template <typename T>
void flip_payload_bit(T& value, std::uint64_t bit) {
  static_assert(std::is_trivially_copyable_v<T>,
                "corrupted payloads must be trivially copyable");
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  const std::uint64_t b = bit % (8 * sizeof(T));
  bytes[b / 8] ^= static_cast<unsigned char>(1u << (b % 8));
  std::memcpy(&value, bytes, sizeof(T));
}

/// Order-independent fold of per-item checksums — the end-to-end audit
/// value paranoid mode compares across engine and oracle runs.
inline std::uint64_t fold_checksum(std::uint64_t acc, std::uint64_t item) {
  return acc ^ util::mix64(item);
}

}  // namespace meshsearch::mesh::integrity
