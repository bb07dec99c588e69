#include "casm/assembler.hpp"

#include <array>
#include <map>
#include <optional>
#include <vector>

#include "isa/isa.hpp"
#include "sim/kernel.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace crs::casm {

namespace {

using isa::Instruction;
using isa::Opcode;

constexpr std::uint64_t kPage = sim::Memory::kPageSize;

enum SectionId : int { kText = 0, kRodata = 1, kData = 2, kSectionCount = 3 };

[[noreturn]] void fail(int line_no, const std::string& msg) {
  throw Error("asm line " + std::to_string(line_no) + ": " + msg);
}

/// An operand expression: `[label] [- label] [± ints...]`. A single
/// positive label yields an absolute address (relocatable); a label pair
/// `a - b` yields their distance (position-independent, no relocation).
struct Expr {
  bool has_label = false;      // positive label present
  std::string label;
  bool has_neg_label = false;  // subtracted label present
  std::string neg_label;
  std::int64_t addend = 0;

  /// Needs a relocation record when rebased.
  bool relocatable() const { return has_label && !has_neg_label; }
};

struct Statement {
  enum class Kind { kInstr, kByte, kWord, kRaw };
  Kind kind = Kind::kInstr;
  int line_no = 0;
  SectionId section = kText;
  std::uint64_t offset = 0;  // within section
  std::uint64_t size = 0;
  std::string mnemonic;
  std::vector<std::string> operands;   // kInstr
  std::vector<std::string> data_items; // kByte / kWord expressions
  std::vector<std::uint8_t> raw;       // kRaw payload (.ascii/.space/.align)
};

/// Strips a trailing comment that is not inside a string literal.
std::string strip_comment(std::string_view line) {
  std::string out;
  bool in_string = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"' && (i == 0 || line[i - 1] != '\\')) in_string = !in_string;
    if (!in_string && (c == ';' || c == '#')) break;
    out += c;
  }
  return out;
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

bool is_ident(std::string_view s) {
  if (s.empty()) return false;
  if (std::isdigit(static_cast<unsigned char>(s[0]))) return false;
  for (char c : s)
    if (!is_ident_char(c)) return false;
  return true;
}

/// Splits operands on top-level commas (no commas occur inside brackets).
std::vector<std::string> split_operands(std::string_view s) {
  std::vector<std::string> out;
  for (const auto& part : split(s, ',')) {
    const auto t = trim(part);
    if (!t.empty()) out.emplace_back(t);
  }
  return out;
}

std::vector<std::uint8_t> parse_string_literal(std::string_view s,
                                               int line_no) {
  s = trim(s);
  if (s.size() < 2 || s.front() != '"' || s.back() != '"')
    fail(line_no, "expected a quoted string");
  s = s.substr(1, s.size() - 2);
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '\\' && i + 1 < s.size()) {
      ++i;
      switch (s[i]) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case '0': c = '\0'; break;
        case '\\': c = '\\'; break;
        case '"': c = '"'; break;
        default: fail(line_no, std::string("unknown escape \\") + s[i]);
      }
    }
    out.push_back(static_cast<std::uint8_t>(c));
  }
  return out;
}

class AssemblerImpl {
 public:
  AssemblerImpl(std::string_view source, const AssembleOptions& options)
      : source_(source), options_(options), link_base_(options.link_base) {}

  sim::Program run() {
    pass1();
    layout();
    pass2();
    return finish();
  }

  /// Source line of each instruction by link-time address; call after
  /// run(). instruction_stmt() keeps every instruction in .text.
  std::map<std::uint64_t, int> text_lines() const {
    std::map<std::uint64_t, int> out;
    for (const Statement& st : statements_) {
      if (st.kind == Statement::Kind::kInstr) {
        out.emplace(section_base_[kText] + st.offset, st.line_no);
      }
    }
    return out;
  }

 private:
  // ---- pass 1: labels, sizes --------------------------------------------
  void pass1() {
    int line_no = 0;
    std::size_t pos = 0;
    while (pos <= source_.size()) {
      const std::size_t eol = source_.find('\n', pos);
      std::string_view raw_line =
          eol == std::string_view::npos
              ? std::string_view(source_).substr(pos)
              : std::string_view(source_).substr(pos, eol - pos);
      pos = eol == std::string_view::npos ? source_.size() + 1 : eol + 1;
      ++line_no;

      std::string line = strip_comment(raw_line);
      std::string_view body = trim(line);
      if (body.empty()) continue;

      // Leading labels ("name:"), possibly several, possibly with a
      // statement on the same line.
      for (;;) {
        std::size_t i = 0;
        while (i < body.size() && is_ident_char(body[i])) ++i;
        if (i == 0 || i >= body.size() || body[i] != ':') break;
        const std::string label(body.substr(0, i));
        if (!is_ident(label)) fail(line_no, "bad label '" + label + "'");
        if (labels_.count(label)) fail(line_no, "duplicate label '" + label + "'");
        labels_[label] = {section_, section_size_[section_]};
        body = trim(body.substr(i + 1));
        if (body.empty()) break;
      }
      if (body.empty()) continue;

      if (body.front() == '.') {
        directive(std::string(body), line_no);
      } else {
        instruction_stmt(std::string(body), line_no);
      }
    }
  }

  void directive(const std::string& body, int line_no) {
    const std::size_t sp = body.find_first_of(" \t");
    const std::string name =
        to_lower(sp == std::string::npos ? body : body.substr(0, sp));
    const std::string rest(
        trim(sp == std::string::npos ? std::string_view() : std::string_view(body).substr(sp)));

    if (name == ".org") {
      std::int64_t v = 0;
      if (!parse_int(rest, v) || v < 0) fail(line_no, ".org needs an address");
      if (emitted_) fail(line_no, ".org must precede any emission");
      link_base_ = static_cast<std::uint64_t>(v);
    } else if (name == ".entry") {
      if (!is_ident(rest)) fail(line_no, ".entry needs a label");
      entry_label_ = rest;
    } else if (name == ".text") {
      section_ = kText;
    } else if (name == ".rodata") {
      section_ = kRodata;
    } else if (name == ".data") {
      section_ = kData;
    } else if (name == ".equ") {
      const auto parts = split_operands(rest);
      if (parts.size() != 2 || !is_ident(parts[0]))
        fail(line_no, ".equ NAME, value");
      std::int64_t v = 0;
      if (!parse_int(parts[1], v)) fail(line_no, ".equ value must be numeric");
      equs_[parts[0]] = v;
    } else if (name == ".byte" || name == ".word") {
      Statement st;
      st.kind = name == ".byte" ? Statement::Kind::kByte : Statement::Kind::kWord;
      st.line_no = line_no;
      st.section = section_;
      st.offset = section_size_[section_];
      st.data_items = split_operands(rest);
      if (st.data_items.empty()) fail(line_no, name + " needs values");
      st.size = st.data_items.size() * (name == ".byte" ? 1 : 8);
      emit(st);
    } else if (name == ".ascii" || name == ".asciz") {
      Statement st;
      st.kind = Statement::Kind::kRaw;
      st.line_no = line_no;
      st.section = section_;
      st.offset = section_size_[section_];
      st.raw = parse_string_literal(rest, line_no);
      if (name == ".asciz") st.raw.push_back(0);
      st.size = st.raw.size();
      emit(st);
    } else if (name == ".space") {
      const auto parts = split_operands(rest);
      std::int64_t n = 0, fill = 0;
      if (parts.empty() || !parse_int(parts[0], n) || n < 0)
        fail(line_no, ".space needs a size");
      if (parts.size() > 1 && !parse_int(parts[1], fill))
        fail(line_no, ".space fill must be numeric");
      if (parts.size() > 2) fail(line_no, ".space takes at most two arguments");
      check_growth(static_cast<std::uint64_t>(n), line_no);
      Statement st;
      st.kind = Statement::Kind::kRaw;
      st.line_no = line_no;
      st.section = section_;
      st.offset = section_size_[section_];
      st.raw.assign(static_cast<std::size_t>(n),
                    static_cast<std::uint8_t>(fill));
      st.size = st.raw.size();
      emit(st);
    } else if (name == ".align") {
      std::int64_t a = 0;
      if (!parse_int(rest, a) || a <= 0 || (a & (a - 1)) != 0)
        fail(line_no, ".align needs a power-of-two argument");
      max_align_ = std::max<std::uint64_t>(max_align_,
                                           static_cast<std::uint64_t>(a));
      const std::uint64_t cur = section_size_[section_];
      const std::uint64_t pad =
          (static_cast<std::uint64_t>(a) - cur % static_cast<std::uint64_t>(a)) %
          static_cast<std::uint64_t>(a);
      if (pad > 0) {
        check_growth(pad, line_no);
        Statement st;
        st.kind = Statement::Kind::kRaw;
        st.line_no = line_no;
        st.section = section_;
        st.offset = cur;
        st.raw.assign(pad, 0);
        st.size = pad;
        emit(st);
      }
    } else {
      fail(line_no, "unknown directive '" + name + "'");
    }
  }

  void instruction_stmt(const std::string& body, int line_no) {
    const std::size_t sp = body.find_first_of(" \t");
    Statement st;
    st.kind = Statement::Kind::kInstr;
    st.line_no = line_no;
    st.section = section_;
    st.offset = section_size_[section_];
    st.mnemonic =
        to_lower(sp == std::string::npos ? body : body.substr(0, sp));
    if (sp != std::string::npos)
      st.operands = split_operands(std::string_view(body).substr(sp));
    st.size = isa::kInstructionSize;
    if (st.section != kText)
      fail(line_no, "instructions are only allowed in .text");
    emit(st);
  }

  /// Refuses `bytes` more in the current section when the section would
  /// outgrow what a default machine can load (sim::MachineConfig::
  /// memory_size). `.space` and `.align` call it before allocating their
  /// bytes, so a hostile size costs an error, not the process's memory.
  void check_growth(std::uint64_t bytes, int line_no) const {
    static const std::uint64_t limit = sim::MachineConfig{}.memory_size;
    const std::uint64_t size = section_size_[section_];
    if (size > limit || bytes > limit - size) {
      fail(line_no, "section would exceed " + std::to_string(limit) +
                        " bytes, the memory of a default machine");
    }
  }

  void emit(Statement st) {
    emitted_ = true;
    section_size_[st.section] += st.size;
    statements_.push_back(std::move(st));
  }

  // ---- layout -------------------------------------------------------------
  // Section bases are aligned to the largest `.align` the program used (at
  // least a page), so in-section alignment directives yield genuinely
  // aligned *addresses* — the prime+probe eviction sets depend on cache-set
  // congruence across 32 KiB boundaries.
  std::uint64_t align_section(std::uint64_t v) const {
    const std::uint64_t a = std::max(kPage, max_align_);
    return (v + a - 1) / a * a;
  }

  void layout() {
    section_base_[kText] = link_base_;
    section_base_[kRodata] = align_section(link_base_ + section_size_[kText]);
    section_base_[kData] =
        align_section(section_base_[kRodata] + section_size_[kRodata]);
    for (int s = 0; s < kSectionCount; ++s) {
      buffers_[s].assign(section_size_[s], 0);
    }
  }

  std::uint64_t label_address(const std::string& label, int line_no) const {
    const auto it = labels_.find(label);
    if (it == labels_.end()) fail(line_no, "unknown label '" + label + "'");
    return section_base_[it->second.first] + it->second.second;
  }

  // ---- expressions ----------------------------------------------------------
  Expr parse_expr(std::string_view s, int line_no) const {
    Expr e;
    s = trim(s);
    if (s.empty()) fail(line_no, "empty expression");
    int sign = 1;
    std::size_t i = 0;
    bool first = true;
    while (i < s.size()) {
      while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
      if (!first) {
        if (i >= s.size() || (s[i] != '+' && s[i] != '-'))
          fail(line_no, "expected + or - in expression");
        sign = s[i] == '+' ? 1 : -1;
        ++i;
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
      } else if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
        sign = s[i] == '+' ? 1 : -1;
        ++i;
      }
      std::size_t start = i;
      while (i < s.size() && is_ident_char(s[i])) ++i;
      if (i == start) fail(line_no, "bad expression term");
      const std::string term(s.substr(start, i - start));
      std::int64_t value = 0;
      if (parse_int(term, value)) {
        e.addend += sign * value;
      } else if (const auto eq = equs_.find(term); eq != equs_.end()) {
        e.addend += sign * eq->second;
      } else if (is_ident(term)) {
        if (sign > 0) {
          if (e.has_label) fail(line_no, "at most one positive label");
          e.has_label = true;
          e.label = term;
        } else {
          if (e.has_neg_label) fail(line_no, "at most one subtracted label");
          e.has_neg_label = true;
          e.neg_label = term;
        }
      } else {
        fail(line_no, "bad expression term '" + term + "'");
      }
      first = false;
    }
    return e;
  }

  /// Absolute value of an expression (labels resolved).
  std::uint64_t eval(const Expr& e, int line_no) const {
    if (e.has_neg_label && !e.has_label)
      fail(line_no, "a subtracted label needs a positive label (a - b)");
    std::int64_t v = e.addend;
    if (e.has_label)
      v += static_cast<std::int64_t>(label_address(e.label, line_no));
    if (e.has_neg_label)
      v -= static_cast<std::int64_t>(label_address(e.neg_label, line_no));
    return static_cast<std::uint64_t>(v);
  }

  // ---- operand parsing ----------------------------------------------------
  int parse_reg(std::string_view s, int line_no) const {
    const auto r = isa::register_from_name(trim(s));
    if (!r.has_value()) fail(line_no, "expected a register, got '" + std::string(s) + "'");
    return *r;
  }

  struct MemOperand {
    int reg = 0;
    Expr disp;
  };

  MemOperand parse_mem(std::string_view s, int line_no) const {
    s = trim(s);
    if (s.size() < 3 || s.front() != '[' || s.back() != ']')
      fail(line_no, "expected a memory operand [reg+disp]");
    s = s.substr(1, s.size() - 2);
    // Split at the first top-level + or - after the register name.
    std::size_t i = 0;
    while (i < s.size() && is_ident_char(s[i])) ++i;
    MemOperand m;
    m.reg = parse_reg(s.substr(0, i), line_no);
    const std::string_view rest = trim(s.substr(i));
    if (!rest.empty()) m.disp = parse_expr(rest, line_no);
    return m;
  }

  // ---- pass 2: encoding -----------------------------------------------------
  void pass2() {
    for (const Statement& st : statements_) {
      switch (st.kind) {
        case Statement::Kind::kRaw:
          std::copy(st.raw.begin(), st.raw.end(),
                    buffers_[st.section].begin() +
                        static_cast<std::ptrdiff_t>(st.offset));
          break;
        case Statement::Kind::kByte: {
          std::uint64_t off = st.offset;
          for (const auto& item : st.data_items) {
            const Expr e = parse_expr(item, st.line_no);
            if (e.has_label) fail(st.line_no, ".byte cannot hold addresses");
            buffers_[st.section][off++] = static_cast<std::uint8_t>(e.addend);
          }
          break;
        }
        case Statement::Kind::kWord: {
          std::uint64_t off = st.offset;
          for (const auto& item : st.data_items) {
            const Expr e = parse_expr(item, st.line_no);
            const std::uint64_t v = eval(e, st.line_no);
            for (int i = 0; i < 8; ++i)
              buffers_[st.section][off + static_cast<std::uint64_t>(i)] =
                  static_cast<std::uint8_t>(v >> (8 * i));
            if (e.relocatable()) {
              relocations_.push_back(
                  {static_cast<std::size_t>(st.section), off,
                   sim::RelocKind::kWord64});
            }
            off += 8;
          }
          break;
        }
        case Statement::Kind::kInstr:
          encode_instruction(st);
          break;
      }
    }
  }

  void require_operands(const Statement& st, std::size_t n) const {
    if (st.operands.size() != n)
      fail(st.line_no, st.mnemonic + " expects " + std::to_string(n) +
                           " operand(s), got " +
                           std::to_string(st.operands.size()));
  }

  void encode_instruction(const Statement& st) {
    const auto opc = isa::opcode_from_mnemonic(st.mnemonic);
    if (!opc.has_value())
      fail(st.line_no, "unknown mnemonic '" + st.mnemonic + "'");

    Instruction instr;
    instr.op = *opc;
    bool imm_is_label = false;

    auto set_imm = [&](const Expr& e) {
      const std::uint64_t v = eval(e, st.line_no);
      if (!e.has_label && !e.has_neg_label) {
        if (e.addend < INT32_MIN || e.addend > static_cast<std::int64_t>(UINT32_MAX))
          fail(st.line_no, "immediate out of 32-bit range");
      }
      instr.imm = static_cast<std::int32_t>(static_cast<std::uint32_t>(v));
      imm_is_label = e.relocatable();
    };

    using isa::OpClass;
    switch (isa::op_class(*opc)) {
      case OpClass::kAlu:
        if (*opc == Opcode::kMovImm) {
          require_operands(st, 2);
          instr.rd = static_cast<std::uint8_t>(parse_reg(st.operands[0], st.line_no));
          set_imm(parse_expr(st.operands[1], st.line_no));
        } else if (*opc == Opcode::kMov) {
          require_operands(st, 2);
          instr.rd = static_cast<std::uint8_t>(parse_reg(st.operands[0], st.line_no));
          instr.rs1 = static_cast<std::uint8_t>(parse_reg(st.operands[1], st.line_no));
        } else if (isa::reads_rs2(*opc)) {
          require_operands(st, 3);
          instr.rd = static_cast<std::uint8_t>(parse_reg(st.operands[0], st.line_no));
          instr.rs1 = static_cast<std::uint8_t>(parse_reg(st.operands[1], st.line_no));
          instr.rs2 = static_cast<std::uint8_t>(parse_reg(st.operands[2], st.line_no));
        } else {  // reg-imm ALU
          require_operands(st, 3);
          instr.rd = static_cast<std::uint8_t>(parse_reg(st.operands[0], st.line_no));
          instr.rs1 = static_cast<std::uint8_t>(parse_reg(st.operands[1], st.line_no));
          set_imm(parse_expr(st.operands[2], st.line_no));
        }
        break;
      case OpClass::kLoad: {
        require_operands(st, 2);
        instr.rd = static_cast<std::uint8_t>(parse_reg(st.operands[0], st.line_no));
        const MemOperand m = parse_mem(st.operands[1], st.line_no);
        instr.rs1 = static_cast<std::uint8_t>(m.reg);
        set_imm(m.disp);
        break;
      }
      case OpClass::kStore: {
        require_operands(st, 2);
        const MemOperand m = parse_mem(st.operands[0], st.line_no);
        instr.rs1 = static_cast<std::uint8_t>(m.reg);
        instr.rs2 = static_cast<std::uint8_t>(parse_reg(st.operands[1], st.line_no));
        set_imm(m.disp);
        break;
      }
      case OpClass::kCondBranch:
        require_operands(st, 2);
        instr.rs1 = static_cast<std::uint8_t>(parse_reg(st.operands[0], st.line_no));
        set_imm(parse_expr(st.operands[1], st.line_no));
        break;
      case OpClass::kJump:
      case OpClass::kCall:
        require_operands(st, 1);
        set_imm(parse_expr(st.operands[0], st.line_no));
        break;
      case OpClass::kIndirectJump:
      case OpClass::kIndirectCall:
      case OpClass::kPush:
        require_operands(st, 1);
        instr.rs1 = static_cast<std::uint8_t>(parse_reg(st.operands[0], st.line_no));
        break;
      case OpClass::kPop:
      case OpClass::kRdCycle:
        require_operands(st, 1);
        instr.rd = static_cast<std::uint8_t>(parse_reg(st.operands[0], st.line_no));
        break;
      case OpClass::kFlush: {
        require_operands(st, 1);
        const MemOperand m = parse_mem(st.operands[0], st.line_no);
        instr.rs1 = static_cast<std::uint8_t>(m.reg);
        set_imm(m.disp);
        break;
      }
      default:  // nop, halt, ret, mfence, syscall
        require_operands(st, 0);
        break;
    }

    const auto bytes = isa::encode(instr);
    std::copy(bytes.begin(), bytes.end(),
              buffers_[st.section].begin() +
                  static_cast<std::ptrdiff_t>(st.offset));
    if (imm_is_label) {
      relocations_.push_back({static_cast<std::size_t>(st.section),
                              st.offset + 4, sim::RelocKind::kImm32});
    }
  }

  // ---- assembly → Program ---------------------------------------------------
  sim::Program finish() {
    sim::Program program;
    program.name = options_.name;
    program.link_base = link_base_;

    static constexpr std::string_view kNames[] = {".text", ".rodata", ".data"};
    static constexpr sim::Perm kPerms[] = {sim::kPermRX, sim::kPermRead,
                                           sim::kPermRW};
    std::array<int, kSectionCount> seg_index{-1, -1, -1};
    for (int s = 0; s < kSectionCount; ++s) {
      if (buffers_[s].empty()) continue;
      sim::Segment seg;
      seg.name = std::string(kNames[s]);
      seg.addr = section_base_[s];
      seg.bytes = std::move(buffers_[s]);
      seg.perm = kPerms[s];
      seg_index[s] = static_cast<int>(program.segments.size());
      program.segments.push_back(std::move(seg));
    }
    for (const auto& rel : relocations_) {
      const int idx = seg_index[rel.segment];
      CRS_ENSURE(idx >= 0, "relocation in empty section");
      program.relocations.push_back(
          {static_cast<std::size_t>(idx), rel.offset, rel.kind});
    }
    for (const auto& [name, loc] : labels_) {
      program.symbols[name] = section_base_[loc.first] + loc.second;
    }

    if (!entry_label_.empty()) {
      program.entry = label_address(entry_label_, 0);
    } else if (labels_.count("_start")) {
      program.entry = label_address("_start", 0);
    } else {
      program.entry = link_base_;
    }
    return program;
  }

  std::string_view source_;
  AssembleOptions options_;
  std::uint64_t link_base_ = 0;
  std::uint64_t max_align_ = 0;
  std::string entry_label_;
  SectionId section_ = kText;
  bool emitted_ = false;
  std::array<std::uint64_t, kSectionCount> section_size_{};
  std::array<std::uint64_t, kSectionCount> section_base_{};
  std::array<std::vector<std::uint8_t>, kSectionCount> buffers_;
  std::vector<Statement> statements_;
  std::map<std::string, std::pair<SectionId, std::uint64_t>> labels_;
  std::map<std::string, std::int64_t> equs_;
  std::vector<sim::Relocation> relocations_;
};

}  // namespace

sim::Program assemble(std::string_view source, const AssembleOptions& options) {
  return AssemblerImpl(source, options).run();
}

Listing assemble_listing(std::string_view source,
                         const AssembleOptions& options) {
  AssemblerImpl impl(source, options);
  Listing out;
  out.program = impl.run();
  out.text_lines = impl.text_lines();
  return out;
}

std::string disassemble_text(const sim::Program& program) {
  std::string out;
  for (const auto& seg : program.segments) {
    if (seg.name != ".text") continue;
    for (std::size_t off = 0; off + isa::kInstructionSize <= seg.bytes.size();
         off += isa::kInstructionSize) {
      const auto instr = isa::decode(
          std::span<const std::uint8_t>(seg.bytes).subspan(off, isa::kInstructionSize));
      out += hex(seg.addr + off);
      out += ":  ";
      out += instr.has_value() ? isa::disassemble(*instr) : std::string("<bad>");
      out += '\n';
    }
  }
  return out;
}

std::string escape_ascii(std::string_view text) {
  std::string out;
  for (const char ch : text) {
    switch (ch) {
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\0':
        out += "\\0";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      default:
        out += ch;
        break;
    }
  }
  return out;
}

}  // namespace crs::casm
