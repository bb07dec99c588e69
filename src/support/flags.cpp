#include "support/flags.hpp"

#include <cstdlib>

namespace crs {

bool FlagCursor::take_u64(const std::string& flag, std::uint64_t& out) {
  std::string v;
  if (!take_value(flag, v)) return false;
  char* end = nullptr;
  out = std::strtoull(v.c_str(), &end, 0);
  if (end == v.c_str() || *end != '\0') {
    throw Error(flag + " wants an unsigned integer, got '" + v + "'");
  }
  return true;
}

bool FlagCursor::take_int(const std::string& flag, int& out) {
  std::string v;
  if (!take_value(flag, v)) return false;
  char* end = nullptr;
  const long parsed = std::strtol(v.c_str(), &end, 0);
  if (end == v.c_str() || *end != '\0') {
    throw Error(flag + " wants an integer, got '" + v + "'");
  }
  out = static_cast<int>(parsed);
  return true;
}

bool parse_on_off(const std::string& flag, const std::string& value) {
  if (value == "on" || value == "1") return true;
  if (value == "off" || value == "0") return false;
  throw Error(flag + " wants 'on' or 'off', got '" + value + "'");
}

}  // namespace crs
