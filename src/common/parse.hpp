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

template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view s) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  return v;
}

}  // namespace echelon
