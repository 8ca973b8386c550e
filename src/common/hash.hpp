// 64-bit FNV-1a over bytes: the snapshot checksum and the arrival trace
// file digest a snapshot records (DESIGN.md §13).

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

}  // namespace echelon
