// Internal helpers shared by the dynamic validator and the scenario
// synthesizer: an affine symbolic value domain over the mined window
// (value = anchor + base*B + val*V + addend, where B is the attacker
// register's seed and V the transiently loaded secret value), plus the
// source rewrite that lets the validator embed the original text behind its
// driver.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "isa/isa.hpp"
#include "mine/mine.hpp"
#include "sim/program.hpp"

namespace crs::mine::detail {

/// Affine symbolic value. `anchor` indexes a caller-defined base symbol
/// (an embedded image segment or the canonical scratch buffer); -1 = none.
/// Arithmetic mirrors Cpu::alu_result on the representable subset and
/// degrades to unknown elsewhere — mispredictions are caught downstream by
/// dynamic validation / the synthesized program's self-check.
struct SymVal {
  bool known = false;
  int anchor = -1;
  std::int64_t base = 0;  ///< coefficient of B (attacker seed)
  std::int64_t val = 0;   ///< coefficient of V (transient secret value)
  std::int64_t add = 0;

  static SymVal unknown() { return {}; }
  static SymVal constant(std::int64_t c) { return {true, -1, 0, 0, c}; }
  static SymVal attacker() { return {true, -1, 1, 0, 0}; }
  static SymVal secret_value() { return {true, -1, 0, 1, 0}; }
  static SymVal anchored(int a, std::int64_t off) {
    return {true, a, 0, 0, off};
  }
  bool pure_const() const {
    return known && anchor < 0 && base == 0 && val == 0;
  }
  bool operator==(const SymVal&) const = default;
};

using SymRegs = std::array<SymVal, isa::kNumRegisters>;

/// a + sign*b in the affine domain (sign is +1 or -1); anchors only combine
/// when at most one side carries one (or they cancel under subtraction).
SymVal sym_add(const SymVal& a, const SymVal& b, int sign);

/// k * a; anchored values only scale by 1.
SymVal sym_scale(const SymVal& a, std::int64_t k);

/// ALU transfer function (OpClass::kAlu only). Folds what the affine domain
/// can represent; anything else (bitwise/shift/div on symbolic inputs,
/// compares on symbolic inputs) returns unknown.
SymVal sym_alu(const isa::Instruction& in, const SymRegs& regs);

/// Little-endian read of `width` in {1,8} bytes from the linked image;
/// nullopt when [addr, addr+width) is not fully inside one segment.
std::optional<std::uint64_t> read_image(const sim::Program& program,
                                        std::uint64_t addr, int width);

/// Decodes the aligned 8-byte slot at `pc` from the linked image.
std::optional<isa::Instruction> decode_at(const sim::Program& program,
                                          std::uint64_t pc);

/// True when [addr, addr+width) lies inside a mapped segment.
bool in_image(const sim::Program& program, std::uint64_t addr, int width);

/// The lines of `source` with every `.org`/`.entry` directive blanked,
/// ready to embed behind a driver that owns the link base and the entry
/// point. Line i is still source line i + 1, the numbering casm reports.
std::vector<std::string> strip_layout_directives(const std::string& source);

/// Dynamic validation of one candidate, the mining pipeline's stage 2.
struct ValidateOutcome {
  Validation validation = Validation::kNone;
  int leaked_byte = -1;
  std::string reject;  ///< why the candidate was rejected (diagnostics)
};

/// `text_lines` is casm's listing of `source` + "\n" + the runtime library
/// (casm::Listing::text_lines): it names the source line the trigger's
/// label is planted on.
ValidateOutcome validate_window(const std::string& source,
                                const std::map<std::uint64_t, int>& text_lines,
                                const WindowCandidate& candidate,
                                const MineOptions& options);

/// The 16-byte secret planted by the validation driver.
extern const char kValidationSecret[17];

}  // namespace crs::mine::detail
