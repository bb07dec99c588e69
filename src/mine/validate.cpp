// Dynamic ground truth for classified windows (stage 2 of the pipeline).
//
// The original source text is re-assembled *in situ* behind a generated
// driver: the combined image keeps the candidate window's real instruction
// bytes (a label is planted at the trigger statement), a 16-byte secret is
// planted in driver data, the attacker register is aimed so the window's
// transient load reads it, and the trigger is fired exactly once — a
// mistrained conditional branch, or a return whose RSB prediction we seed at
// the window. The candidate survives only if the predicted secret-dependent
// probe line is actually resident in the data caches afterwards.
#include <array>
#include <cstdint>
#include <exception>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "isa/isa.hpp"
#include "mine/emul.hpp"
#include "mine/mine.hpp"
#include "sim/kernel.hpp"

namespace crs::mine::detail {
namespace {

using isa::Opcode;
using isa::OpClass;

constexpr std::uint64_t kSlot = 8;

constexpr char kEntryLabel[] = "mine_gadget_entry";

struct XmitFormula {
  std::int64_t base = 0;  ///< coefficient of the attacker seed B
  std::int64_t val = 0;   ///< coefficient of the transient secret value
  std::int64_t add = 0;
  std::uint64_t ea(std::int64_t bval, std::uint64_t v) const {
    return static_cast<std::uint64_t>(base) * static_cast<std::uint64_t>(bval) +
           static_cast<std::uint64_t>(val) * v +
           static_cast<std::uint64_t>(add);
  }
};

struct WindowFormulas {
  std::int64_t load_base = 0;  ///< transient load ea = B + load_base
  XmitFormula xmit;
};

bool fits_i32(std::int64_t v) {
  return v >= std::numeric_limits<std::int32_t>::min() &&
         v <= std::numeric_limits<std::int32_t>::max();
}

/// Affine walk of the candidate window inside the combined image. `init`
/// carries the driver's register state symbolically.
std::optional<WindowFormulas> emulate_window(const sim::Program& combined,
                                             std::uint64_t window_addr,
                                             const WindowCandidate& cand,
                                             SymRegs regs) {
  const int load_idx =
      static_cast<int>((cand.load_addr - cand.window_addr) / kSlot);
  const int xmit_idx = cand.window_len - 1;
  WindowFormulas out;
  for (int i = 0; i < cand.window_len; ++i) {
    const std::uint64_t pc = window_addr + static_cast<std::uint64_t>(i) * kSlot;
    auto in = decode_at(combined, pc);
    if (!in) return std::nullopt;
    const OpClass cls = isa::op_class(in->op);
    if (cls == OpClass::kLoad) {
      SymVal ea = sym_add(regs[in->rs1],
                          SymVal::constant(static_cast<std::int64_t>(in->imm)),
                          +1);
      if (i == load_idx) {
        // The attacker-steered load: ea must be exactly B + const.
        if (!ea.known || ea.anchor >= 0 || ea.base != 1 || ea.val != 0) {
          return std::nullopt;
        }
        out.load_base = ea.add;
        regs[in->rd] = SymVal::secret_value();
      } else if (i == xmit_idx) {
        if (!ea.known || ea.anchor >= 0 || ea.val == 0) return std::nullopt;
        out.xmit = {ea.base, ea.val, ea.add};
        return out;
      } else if (ea.pure_const()) {
        const int width = in->op == Opcode::kLoadB ? 1 : 8;
        auto v = read_image(combined, static_cast<std::uint64_t>(ea.add), width);
        regs[in->rd] = v ? SymVal::constant(static_cast<std::int64_t>(*v))
                         : SymVal::unknown();
      } else {
        regs[in->rd] = SymVal::unknown();
      }
    } else if (cls == OpClass::kAlu) {
      regs[in->rd] = sym_alu(*in, regs);
    } else if (cls == OpClass::kPop || cls == OpClass::kRdCycle) {
      regs[in->rd] = SymVal::unknown();
    } else if (cls == OpClass::kStore || cls == OpClass::kPush ||
               cls == OpClass::kFlush || cls == OpClass::kNop) {
      // Stores are not modelled; a store-to-load mismatch simply fails the
      // dynamic residency check below.
    } else {
      return std::nullopt;  // control flow mid-window: classifier excluded it
    }
  }
  return std::nullopt;  // xmit index never produced a formula
}

struct CombinedProgram {
  sim::Program program;
  std::uint64_t trigger = 0;  ///< pc to stop at (branch pc / driver ret)
  std::uint64_t window = 0;   ///< transient window start in combined layout
  std::int64_t bval = 0;
  WindowFormulas formulas;
  std::string reject;
};

/// Shared sym-walk entry: given the assembled combined image, locate the
/// trigger/window, emulate, and solve for the attacker seed.
bool solve(const WindowCandidate& cand, CombinedProgram* cp,
           std::int64_t cond_val, bool cond_is_attacker) {
  const sim::Program& prog = cp->program;
  const std::uint64_t entry_sym = prog.symbol(kEntryLabel);
  const std::uint64_t scratch = prog.symbol("mine_scratch");
  const std::uint64_t secret_addr = prog.symbol("mine_secret");

  if (cand.trigger == TriggerKind::kCondBranch) {
    auto br = decode_at(prog, entry_sym);
    if (!br || isa::op_class(br->op) != OpClass::kCondBranch) {
      cp->reject = "trigger does not decode to a conditional branch";
      return false;
    }
    cp->trigger = entry_sym;
    cp->window = cand.window_taken ? static_cast<std::uint32_t>(br->imm)
                                   : entry_sym + kSlot;
  } else {
    cp->trigger = prog.symbol("mine_ret");
    cp->window = entry_sym;
  }

  SymRegs regs{};
  for (int r = 0; r < isa::kNumRegisters - 1; ++r) {
    regs[r] = SymVal::constant(static_cast<std::int64_t>(scratch));
  }
  regs[isa::kNumRegisters - 1] = SymVal::unknown();  // sp
  regs[cand.attacker_reg] = SymVal::attacker();
  if (cand.trigger == TriggerKind::kCondBranch && !cond_is_attacker) {
    regs[cand.cond_reg] = SymVal::constant(cond_val);
  }

  auto formulas = emulate_window(prog, cp->window, cand, regs);
  if (!formulas) {
    cp->reject = "window not representable in the affine domain";
    return false;
  }
  cp->formulas = *formulas;
  cp->bval = static_cast<std::int64_t>(secret_addr) - formulas->load_base;
  if (!fits_i32(cp->bval)) {
    cp->reject = "attacker seed does not fit a movi immediate";
    return false;
  }
  return true;
}

std::string reg(int r) { return std::string(isa::register_name(r)); }

/// Driver + embedded original + planted data, as one assembly source.
/// `bval` seeds the attacker register; `slot_value` is what the flushed
/// condition slot holds (the attacker seed itself when the branch tests the
/// attacker register, the direction-flipping condition value otherwise).
std::string build_combined_source(const std::vector<std::string>& body_lines,
                                  int label_line, const WindowCandidate& cand,
                                  std::int64_t bval, std::int64_t slot_value) {
  std::string s;
  s += ".entry mine_main\n";
  s += "mine_main:\n";
  const int rt = cand.attacker_reg;
  const bool branch = cand.trigger == TriggerKind::kCondBranch;
  const int rc = branch ? cand.cond_reg : -1;
  if (branch) {
    s += "  movi r9, mine_cond_slot\n";
    s += "  clflush [r9]\n";
    s += "  mfence\n";
  } else {
    // Fake return frame: architectural target mine_resume, slow to resolve
    // (flushed), while the RSB predicts the mined window (seeded by the
    // harness right before the ret executes).
    s += "  addi r15, r15, -8\n";
    s += "  movi r9, mine_resume\n";
    s += "  store [r15], r9\n";
    s += "  clflush [r15]\n";
    s += "  mfence\n";
  }
  // Canonicalize every register the window might read: point them at a
  // harmless scratch buffer (sp keeps the kernel stack).
  for (int r = 0; r < isa::kNumRegisters - 1; ++r) {
    if (r == rt || r == rc) continue;
    s += "  movi " + reg(r) + ", mine_scratch\n";
  }
  if (branch) {
    if (rc != rt) {
      s += "  movi " + reg(rt) + ", " + std::to_string(bval) + "\n";
    }
    // Condition resolves late (flushed slot), opening the window.
    s += "  movi " + reg(rc) + ", mine_cond_slot\n";
    s += "  load " + reg(rc) + ", [" + reg(rc) + "]\n";
    s += "  jmp " + std::string(kEntryLabel) + "\n";
  } else {
    s += "  movi " + reg(rt) + ", " + std::to_string(bval) + "\n";
    s += "mine_ret:\n";
    s += "  ret\n";
    s += "mine_resume:\n";
    s += "  halt\n";
  }
  // Original image, with the trigger labelled in place.
  for (int i = 0; i < static_cast<int>(body_lines.size()); ++i) {
    if (i == label_line) s += std::string(kEntryLabel) + ":\n";
    s += body_lines[i];
    s += '\n';
  }
  s += ".data\n";
  s += ".align 64\n";
  s += "mine_cond_slot:\n";
  s += "  .word " + std::to_string(branch ? slot_value : 0) + "\n";
  s += ".align 64\n";
  s += "mine_secret:\n";
  s += "  .ascii \"" + casm::escape_ascii(kValidationSecret) + "\"\n";
  s += ".align 64\n";
  s += "mine_scratch:\n";
  s += "  .space 4096, 0\n";
  s += '\n';
  s += casm::runtime_library();
  return s;
}

std::uint64_t line_of(std::uint64_t addr) { return addr & ~std::uint64_t{63}; }

}  // namespace

ValidateOutcome validate_window(const std::string& source,
                                const std::map<std::uint64_t, int>& text_lines,
                                const WindowCandidate& cand,
                                const MineOptions& opt) {
  ValidateOutcome out;
  if (cand.attacker_reg < 0 || cand.attacker_reg >= isa::kNumRegisters - 1 ||
      cand.cond_reg == isa::kNumRegisters - 1) {
    out.reject = "stack-pointer trigger registers are not drivable";
    return out;
  }
  const bool branch = cand.trigger == TriggerKind::kCondBranch;
  const std::vector<std::string> lines = strip_layout_directives(source);
  const auto at =
      text_lines.find(branch ? cand.trigger_addr : cand.window_addr);
  // Past the source's last line, the instruction is the runtime library's.
  if (at == text_lines.end() || at->second > static_cast<int>(lines.size())) {
    out.reject = "trigger statement not found in source text";
    return out;
  }
  const int label_line = at->second - 1;

  // The branch condition register doubles as the attacker register when the
  // window derefs the same value it branched on (classic bounds-check
  // shape): the flushed slot then carries the attacker seed itself.
  const bool cond_is_attacker = branch && cand.cond_reg == cand.attacker_reg;

  // Pass 1: assemble with a placeholder slot value to learn the layout and
  // solve the affine window; pass 2 re-assembles with the real values.
  CombinedProgram cp;
  std::int64_t cond_val = 0;
  for (int pass = 0; pass < 2; ++pass) {
    const std::int64_t slot_value = cond_is_attacker ? cp.bval : cond_val;
    std::string combined =
        build_combined_source(lines, label_line, cand, cp.bval, slot_value);
    try {
      cp.program = casm::assemble(
          combined, {.name = "mine-validate", .link_base = opt.link_base});
    } catch (const std::exception& e) {
      out.reject = std::string("combined assembly failed: ") + e.what();
      return out;
    }
    if (!solve(cand, &cp, cond_val, cond_is_attacker)) {
      out.reject = cp.reject;
      return out;
    }
    if (branch) {
      auto br = decode_at(cp.program, cp.trigger);
      // The actual direction must contradict the trained (window) side.
      const bool need_taken = !cand.window_taken;
      if (cond_is_attacker) {
        const bool taken = br->op == Opcode::kBeqz ? cp.bval == 0
                                                   : cp.bval != 0;
        if (taken != need_taken) {
          out.reject = "cond register is the attacker register and the seed "
                       "forces the trained direction";
          return out;
        }
      } else {
        const bool zero_when_taken = br->op == Opcode::kBeqz;
        cond_val = zero_when_taken == need_taken ? 0 : 1;
      }
    }
  }

  // Fire it on the simulator.
  sim::Machine machine;
  sim::Kernel kernel(machine, sim::KernelConfig{});
  kernel.register_binary("/bin/mined", cp.program);
  kernel.start("/bin/mined");

  if (branch) {
    for (int i = 0; i < opt.train_iterations; ++i) {
      machine.predictor().pht().update(cp.trigger, cand.window_taken);
    }
  } else {
    machine.predictor().rsb().push(cp.window);
  }

  int steps = 0;
  while (!machine.cpu().halted() && machine.cpu().pc() != cp.trigger) {
    machine.cpu().step();
    if (++steps > 10000) {
      out.reject = "driver never reached the trigger";
      return out;
    }
  }
  if (machine.cpu().halted()) {
    out.reject = "machine halted before the trigger";
    return out;
  }
  machine.cpu().step();  // the mispredicted trigger + its transient window

  const auto& hier = machine.hierarchy();
  auto resident = [&](std::uint64_t ea) {
    return hier.l1d_resident(ea) || hier.l2_resident(ea);
  };
  const XmitFormula& f = cp.formulas.xmit;
  std::uint64_t expected_v;
  if (cand.load_width == 1) {
    expected_v = static_cast<std::uint8_t>(kValidationSecret[0]);
  } else {
    expected_v = 0;
    for (int i = 7; i >= 0; --i) {
      expected_v = (expected_v << 8) |
                   static_cast<std::uint8_t>(kValidationSecret[i]);
    }
  }
  const std::uint64_t hot = f.ea(cp.bval, expected_v);
  if (!resident(hot)) {
    out.reject = "predicted probe line not resident after the trigger";
    return out;
  }
  // Discriminability: some other secret value must map to a distinct cold
  // line, otherwise the window only perturbs the cache without leaking.
  bool discriminable = false;
  if (cand.load_width == 1) {
    for (std::uint64_t v = 0; v < 256 && !discriminable; ++v) {
      if (v == expected_v) continue;
      const std::uint64_t foil = f.ea(cp.bval, v);
      discriminable = line_of(foil) != line_of(hot) && !resident(foil);
    }
  } else {
    const std::uint64_t foils[] = {expected_v ^ 0xffULL, expected_v + 64,
                                   expected_v ^ 0xff00ULL};
    for (const std::uint64_t v : foils) {
      const std::uint64_t foil = f.ea(cp.bval, v);
      if (line_of(foil) != line_of(hot) && !resident(foil)) {
        discriminable = true;
        break;
      }
    }
  }
  out.validation = discriminable ? Validation::kLeak : Validation::kPerturb;
  out.leaked_byte = static_cast<std::uint8_t>(kValidationSecret[0]);
  return out;
}

}  // namespace crs::mine::detail
