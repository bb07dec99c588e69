#include "support/flags.hpp"

namespace crs {

bool parse_on_off(const std::string& flag, const std::string& value) {
  if (value == "on" || value == "1") return true;
  if (value == "off" || value == "0") return false;
  throw Error(flag + " wants 'on' or 'off', got '" + value + "'");
}

}  // namespace crs
