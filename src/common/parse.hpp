// Whole-token numeric parsing for outside input (CLI flags, fault plans,
// arrival traces, SLO specs).
//
// std::stod / std::stoull / istream >> stop at the first character that is
// not part of a number and report success, so "0.1x" reads as 0.1, "3abc"
// as 3, and "-1" wraps to 2^64 - 1 as an unsigned. parse_number accepts a
// token only when std::from_chars consumes all of it; floating-point
// results must also be finite, which rejects "nan" and "inf".

#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace echelon {

// `base` applies to integers only ("ff" with base 16; no "0x" prefix).
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view s,
                                            int base = 10) {
  T v{};
  const char* end = s.data() + s.size();
  std::from_chars_result r;
  if constexpr (std::is_floating_point_v<T>) {
    r = std::from_chars(s.data(), end, v);
  } else {
    r = std::from_chars(s.data(), end, v, base);
  }
  if (s.empty() || r.ec != std::errc{} || r.ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  return v;
}

}  // namespace echelon
