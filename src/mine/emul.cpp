#include "mine/emul.hpp"

#include <cctype>
#include <string_view>

#include "support/strings.hpp"

namespace crs::mine::detail {

using isa::Opcode;

const char kValidationSecret[17] = "MINED-SECRET-KEY";

SymVal sym_add(const SymVal& a, const SymVal& b, int sign) {
  if (!a.known || !b.known) return SymVal::unknown();
  SymVal r;
  r.known = true;
  if (a.anchor >= 0 && b.anchor >= 0) {
    // Two anchors only cancel under subtraction of the same anchor.
    if (sign < 0 && a.anchor == b.anchor) {
      r.anchor = -1;
    } else {
      return SymVal::unknown();
    }
  } else {
    r.anchor = a.anchor >= 0 ? a.anchor : b.anchor;
    if (sign < 0 && b.anchor >= 0) return SymVal::unknown();
  }
  r.base = a.base + sign * b.base;
  r.val = a.val + sign * b.val;
  r.add = a.add + sign * b.add;
  return r;
}

SymVal sym_scale(const SymVal& a, std::int64_t k) {
  if (!a.known) return SymVal::unknown();
  if (k == 0) return SymVal::constant(0);
  if (k == 1) return a;
  if (a.anchor >= 0) return SymVal::unknown();  // k * anchor is not affine
  SymVal r = a;
  r.base *= k;
  r.val *= k;
  r.add *= k;
  return r;
}

namespace {
std::int64_t shift_amount(std::uint64_t raw) { return raw & 63; }
}  // namespace

SymVal sym_alu(const isa::Instruction& in, const SymRegs& regs) {
  const SymVal& a = regs[in.rs1];
  const SymVal& b = regs[in.rs2];
  const auto imm64 =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(in.imm));
  switch (in.op) {
    case Opcode::kMovImm:
      return SymVal::constant(static_cast<std::int64_t>(in.imm));
    case Opcode::kMov:
      return a;
    case Opcode::kAdd:
      return sym_add(a, b, +1);
    case Opcode::kSub:
      return sym_add(a, b, -1);
    case Opcode::kAddImm:
      return sym_add(a, SymVal::constant(static_cast<std::int64_t>(in.imm)),
                     +1);
    case Opcode::kMul:
      if (b.pure_const()) return sym_scale(a, b.add);
      if (a.pure_const()) return sym_scale(b, a.add);
      return SymVal::unknown();
    case Opcode::kMulImm:
      return sym_scale(a, static_cast<std::int64_t>(in.imm));
    case Opcode::kShlImm:
      return sym_scale(a, std::int64_t{1} << shift_amount(imm64));
    case Opcode::kShl:
      if (b.pure_const()) {
        return sym_scale(
            a, std::int64_t{1}
                   << shift_amount(static_cast<std::uint64_t>(b.add)));
      }
      return SymVal::unknown();
    default:
      break;
  }
  // Everything below folds only on pure constants, mirroring
  // Cpu::alu_result bit for bit (registers are uint64 two's complement).
  const auto ua = static_cast<std::uint64_t>(a.add);
  const auto ub = static_cast<std::uint64_t>(b.add);
  auto c = [](std::uint64_t v) {
    return SymVal::constant(static_cast<std::int64_t>(v));
  };
  switch (in.op) {
    case Opcode::kDivu:
      if (a.pure_const() && b.pure_const()) {
        return c(ub == 0 ? ~0ull : ua / ub);
      }
      return SymVal::unknown();
    case Opcode::kRemu:
      if (a.pure_const() && b.pure_const()) return c(ub == 0 ? ua : ua % ub);
      return SymVal::unknown();
    case Opcode::kAnd:
      if (a.pure_const() && b.pure_const()) return c(ua & ub);
      return SymVal::unknown();
    case Opcode::kOr:
      if (a.pure_const() && b.pure_const()) return c(ua | ub);
      return SymVal::unknown();
    case Opcode::kXor:
      if (a.pure_const() && b.pure_const()) return c(ua ^ ub);
      return SymVal::unknown();
    case Opcode::kShr:
      if (a.pure_const() && b.pure_const()) {
        return c(ua >> shift_amount(ub));
      }
      return SymVal::unknown();
    case Opcode::kSar:
      if (a.pure_const() && b.pure_const()) {
        return c(static_cast<std::uint64_t>(static_cast<std::int64_t>(ua) >>
                                            shift_amount(ub)));
      }
      return SymVal::unknown();
    case Opcode::kAndImm:
      if (a.pure_const()) return c(ua & imm64);
      return SymVal::unknown();
    case Opcode::kOrImm:
      if (a.pure_const()) return c(ua | imm64);
      return SymVal::unknown();
    case Opcode::kXorImm:
      if (a.pure_const()) return c(ua ^ imm64);
      return SymVal::unknown();
    case Opcode::kShrImm:
      if (a.pure_const()) return c(ua >> shift_amount(imm64));
      return SymVal::unknown();
    case Opcode::kCmpLt:
      if (a.pure_const() && b.pure_const()) {
        return c(static_cast<std::int64_t>(ua) < static_cast<std::int64_t>(ub)
                     ? 1
                     : 0);
      }
      return SymVal::unknown();
    case Opcode::kCmpLtu:
      if (a.pure_const() && b.pure_const()) return c(ua < ub ? 1 : 0);
      return SymVal::unknown();
    case Opcode::kCmpEq:
      if (a.pure_const() && b.pure_const()) return c(ua == ub ? 1 : 0);
      return SymVal::unknown();
    case Opcode::kCmpNe:
      if (a.pure_const() && b.pure_const()) return c(ua != ub ? 1 : 0);
      return SymVal::unknown();
    default:
      return SymVal::unknown();
  }
}

std::optional<std::uint64_t> read_image(const sim::Program& program,
                                        std::uint64_t addr, int width) {
  for (const auto& seg : program.segments) {
    if (addr >= seg.addr && addr + width <= seg.addr + seg.bytes.size()) {
      std::uint64_t v = 0;
      for (int i = width - 1; i >= 0; --i) {
        v = (v << 8) | seg.bytes[addr - seg.addr + i];
      }
      return v;
    }
  }
  return std::nullopt;
}

std::optional<isa::Instruction> decode_at(const sim::Program& program,
                                          std::uint64_t pc) {
  std::array<std::uint8_t, isa::kInstructionSize> raw{};
  for (int i = 0; i < static_cast<int>(raw.size()); ++i) {
    auto b = read_image(program, pc + i, 1);
    if (!b) return std::nullopt;
    raw[i] = static_cast<std::uint8_t>(*b);
  }
  return isa::decode(raw);
}

bool in_image(const sim::Program& program, std::uint64_t addr, int width) {
  for (const auto& seg : program.segments) {
    if (addr >= seg.addr && addr + width <= seg.addr + seg.bytes.size()) {
      return true;
    }
  }
  return false;
}

namespace {

/// `line` up to its comment, cut where the assembler cuts it: the first `;`
/// or `#` outside a string literal.
std::string_view strip_comment(std::string_view line) {
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"' && (i == 0 || line[i - 1] != '\\')) in_string = !in_string;
    if (!in_string && (c == ';' || c == '#')) return line.substr(0, i);
  }
  return line;
}

bool is_label_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

}  // namespace

std::vector<std::string> strip_layout_directives(const std::string& source) {
  std::vector<std::string> lines = split(source, '\n');
  for (std::string& line : lines) {
    // Read the statement as the assembler does: leading `name:` labels
    // skipped, the directive name compared case-insensitively. The labels
    // stay on the line; only the directive goes.
    std::string_view body = trim(strip_comment(line));
    std::string labels;
    for (;;) {
      std::size_t i = 0;
      while (i < body.size() && is_label_char(body[i])) ++i;
      if (i == 0 || i >= body.size() || body[i] != ':') break;
      labels.append(body.substr(0, i + 1));
      body = trim(body.substr(i + 1));
    }
    const std::string name =
        to_lower(body.substr(0, body.find_first_of(" \t")));
    if (name == ".org" || name == ".entry") line = labels;
  }
  return lines;
}

}  // namespace crs::mine::detail
