// Shared CLI flag-parsing helper for the tools.
//
// Every tool used to hand-roll its own argv loop, and the error message for
// a value-taking flag given as the last argument drifted between them
// (crsim said "--seed needs a value" while crs_matrix said "flag '--seed'
// needs a value"). FlagCursor is the one shared implementation: a cursor
// over argv that yields flags, consumes their values with a uniform
// "<flag> needs a value" error, and understands both the spaced
// (`--seed 7`) and inline (`--seed=7`) spellings.
#pragma once

#include <cstdint>
#include <string>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace crs {

/// Cursor over argv. Typical tool loop:
///
///   FlagCursor args(argc, argv);
///   while (args.more()) {
///     if (args.take("--quick")) { quick = true; }
///     else if (args.take_number("--seed", seed)) {}
///     else if (args.take_value("--out", path)) {}
///     else break;   // positional argument (or let unknown() report it)
///   }
class FlagCursor {
 public:
  FlagCursor(int argc, char** argv, int start = 1)
      : argc_(argc), argv_(argv), index_(start) {}

  /// True while an argument remains.
  bool more() const { return index_ < argc_; }

  /// True while an argument remains and it looks like a flag.
  bool more_flags() const { return more() && argv_[index_][0] == '-'; }

  /// The current argument (verbatim).
  std::string current() const { return argv_[index_]; }

  /// Consumes the current argument if it equals `flag` exactly.
  bool take(const std::string& flag) {
    if (!more() || flag != argv_[index_]) return false;
    ++index_;
    return true;
  }

  /// Consumes `--flag value` or `--flag=value`, storing the value. Throws
  /// crs::Error("<flag> needs a value") when the flag is the last argument
  /// (instead of falling through to an "unknown flag" report).
  bool take_value(const std::string& flag, std::string& out) {
    if (!more()) return false;
    const std::string arg = argv_[index_];
    if (arg == flag) {
      if (index_ + 1 >= argc_) throw Error(flag + " needs a value");
      out = argv_[index_ + 1];
      index_ += 2;
      return true;
    }
    if (arg.size() > flag.size() + 1 && arg.compare(0, flag.size(), flag) == 0 &&
        arg[flag.size()] == '=') {
      out = arg.substr(flag.size() + 1);
      ++index_;
      return true;
    }
    // `--flag=` with an empty value still counts as provided-but-empty.
    if (arg == flag + "=") {
      out.clear();
      ++index_;
      return true;
    }
    return false;
  }

  /// take_value + parse_number: the value must be a T (decimal or 0x-hex
  /// for integers), or crs::Error names the flag. The type of `out` is the
  /// accepted range, so `--port 70001` into a std::uint16_t is an error,
  /// not 4465.
  template <class T>
  bool take_number(const std::string& flag, T& out) {
    std::string v;
    if (!take_value(flag, v)) return false;
    out = parse_number<T>(flag, v);
    return true;
  }

  /// Consumes and returns the current positional argument.
  std::string take_positional() { return argv_[index_++]; }

  /// Consumes the current argument and returns argv's own pointer to it,
  /// for a caller that leaves it in argv for another parser.
  char* take_raw() { return argv_[index_++]; }

  /// Throws the uniform unknown-flag error for the current argument.
  [[noreturn]] void unknown() const {
    throw Error("unknown flag '" + current() + "'");
  }

 private:
  int argc_;
  char** argv_;
  int index_;
};

/// Parses an on/off flag value ("on"/"1" → true, "off"/"0" → false); throws
/// crs::Error naming the flag otherwise.
bool parse_on_off(const std::string& flag, const std::string& value);

}  // namespace crs
