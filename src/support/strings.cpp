#include "support/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "support/error.hpp"

namespace crs {

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string pad_left(std::string_view s, std::size_t width) {
  std::string out;
  if (s.size() < width) out.assign(width - s.size(), ' ');
  out += s;
  return out;
}

std::string pad_right(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

bool parse_int(std::string_view s, std::int64_t& out) {
  s = trim(s);
  if (s.empty()) return false;
  bool negative = false;
  if (s.front() == '-') {
    negative = true;
    s.remove_prefix(1);
    if (s.empty()) return false;
  }
  int base = 10;
  if (starts_with(s, "0x") || starts_with(s, "0X")) {
    base = 16;
    s.remove_prefix(2);
    if (s.empty()) return false;
  }
  std::uint64_t magnitude = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), magnitude, base);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  if (negative) {
    out = -static_cast<std::int64_t>(magnitude);
  } else {
    out = static_cast<std::int64_t>(magnitude);
  }
  return true;
}

namespace detail {

std::optional<IntegerText> read_integer(std::string_view text) {
  IntegerText out;
  if (starts_with(text, "-")) {
    out.negative = true;
    text.remove_prefix(1);
  }
  int base = 10;
  if (starts_with(text, "0x") || starts_with(text, "0X")) {
    base = 16;
    text.remove_prefix(2);
  }
  // from_chars takes no sign, prefix or whitespace for an unsigned target,
  // and reports overflow instead of wrapping.
  const char* end = text.data() + text.size();
  const auto [ptr, ec] =
      std::from_chars(text.data(), end, out.magnitude, base);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return out;
}

std::optional<double> read_finite(std::string_view text) {
  double out = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc() || ptr != end || !std::isfinite(out)) {
    return std::nullopt;
  }
  return out;
}

void bad_number(std::string_view what, const std::string& want,
                std::string_view text) {
  throw Error(std::string(what) + " wants " + want + ", got '" +
              std::string(text) + "'");
}

}  // namespace detail

}  // namespace crs
