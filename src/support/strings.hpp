// String helpers shared by the assembler, disassembler and bench output,
// and the one checked text-to-number parser behind flags, job specs and
// frame payloads.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace crs {

/// Splits on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Splits on runs of whitespace, dropping empty fields.
std::vector<std::string> split_ws(std::string_view s);

std::string_view trim(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);

std::string to_lower(std::string_view s);

/// Formats `v` as 0x-prefixed lowercase hex.
std::string hex(std::uint64_t v);

/// Fixed-point decimal with `digits` fractional digits (bench tables).
std::string fixed(double v, int digits);

/// Left-pads `s` with spaces to `width`.
std::string pad_left(std::string_view s, std::size_t width);

/// Right-pads `s` with spaces to `width`.
std::string pad_right(std::string_view s, std::size_t width);

/// Parses a signed 64-bit integer supporting decimal, 0x-hex, and a leading
/// '-'. Returns false on any trailing garbage. This is casm's literal
/// grammar: a 64-bit hex literal wraps on purpose. Everything else reads
/// numbers through parse_number.
bool parse_int(std::string_view s, std::int64_t& out);

namespace detail {

/// An integer spelling: an optional '-', then decimal digits or 0x-hex
/// digits, nothing else. Nullopt when `text` is not one or the magnitude
/// overflows 64 bits.
struct IntegerText {
  bool negative = false;
  std::uint64_t magnitude = 0;
};
std::optional<IntegerText> read_integer(std::string_view text);

/// A finite decimal or scientific double spelling, nothing else.
std::optional<double> read_finite(std::string_view text);

/// Throws crs::Error("<what> wants <want>, got '<text>'").
[[noreturn]] void bad_number(std::string_view what, const std::string& want,
                             std::string_view text);

}  // namespace detail

/// Reads `text` as a T in [lo, hi] (T's whole range by default), or throws
/// crs::Error("<what> wants <type or range>, got '<text>'"). Refused: empty
/// text, surrounding or trailing bytes, a sign on an unsigned T, overflow, a
/// value outside T or [lo, hi], and a non-finite double. Integers are
/// decimal (leading zeros do not mean octal) or 0x-hex; doubles are decimal
/// or scientific.
template <class T>
T parse_number(std::string_view what, std::string_view text,
               T lo = std::numeric_limits<T>::lowest(),
               T hi = std::numeric_limits<T>::max()) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  std::string want;
  if constexpr (std::is_floating_point_v<T>) {
    const std::optional<double> v = detail::read_finite(text);
    if (v && *v >= lo && *v <= hi) return static_cast<T>(*v);
    want = "a finite number";
  } else {
    const std::optional<detail::IntegerText> v = detail::read_integer(text);
    const auto in_range = [&](auto x) {
      return std::cmp_less_equal(lo, x) && std::cmp_less_equal(x, hi);
    };
    if (v && !v->negative && in_range(v->magnitude)) {
      return static_cast<T>(v->magnitude);
    }
    // A '-' only on a signed target. 0 - magnitude, read as int64, is the
    // exact negation of every magnitude up to 2^63.
    if constexpr (std::is_signed_v<T>) {
      if (v && v->negative && v->magnitude <= (std::uint64_t{1} << 63)) {
        const auto negated = static_cast<std::int64_t>(0 - v->magnitude);
        if (in_range(negated)) return static_cast<T>(negated);
      }
    }
    want = std::is_signed_v<T> ? "an integer" : "an unsigned integer";
  }
  // The words alone describe a full 64-bit integer or double range.
  if (sizeof(T) < sizeof(std::uint64_t) ||
      lo != std::numeric_limits<T>::lowest() ||
      hi != std::numeric_limits<T>::max()) {
    want += " in " + std::to_string(lo) + ".." + std::to_string(hi);
  }
  detail::bad_number(what, want, text);
}

}  // namespace crs
