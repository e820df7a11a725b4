// FNV-1a-64, the one hash behind every zeiot digest (trace, span, fault
// plan, topology, fleet deployment, serve report, NVM checkpoint trailer).
// Because they all share it, digests compose: a fleet deployment digest
// folds in its trace and span digests as plain 64-bit words.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace zeiot {

class Fnv1a64 {
 public:
  /// Mixes `size` raw bytes in memory order.
  Fnv1a64& bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) byte(p[i]);
    return *this;
  }
  /// Mixes a 64-bit word low byte first, independent of host endianness.
  Fnv1a64& word(std::uint64_t w) {
    for (int i = 0; i < 8; ++i) byte((w >> (8 * i)) & 0xffu);
    return *this;
  }
  /// Mixes a double by its bit pattern (so -0.0 and 0.0 differ).
  Fnv1a64& bits(double d) {
    std::uint64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return word(u);
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace zeiot
