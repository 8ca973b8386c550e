// 64-bit FNV-1a: over bytes (the snapshot checksum and the arrival trace
// file digest a snapshot records, DESIGN.md §13) and over 64-bit words (the
// state digests of the snapshot image, the Simulator's completion heap, the
// SLO tracker and the flight recorder).

#pragma once

#include <cstddef>
#include <cstdint>

namespace echelon {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

[[nodiscard]] inline std::uint64_t fnv1a(
    const char* data, std::size_t n, std::uint64_t h = kFnvOffset) noexcept {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= kFnvPrime;
  }
  return h;
}

// Folds one 64-bit word into `h`: FNV-1a over its eight bytes, least
// significant first.
[[nodiscard]] constexpr std::uint64_t fnv1a_word(std::uint64_t h,
                                                 std::uint64_t word) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace echelon
