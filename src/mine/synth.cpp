// Scenario synthesis (stage 3 of the pipeline): turn a validated window into
// a standalone flush+reload replay program built around the *verbatim mined
// body*.
//
// The mined instructions are re-emitted inside a canonical trigger:
//
//   PHT:  mine_gadget: cmpltu rCc, rZ, rC   ; fence-pass-visible compare
//                      bnez   rCc, mine_gskip
//                      <mined body>         ; architectural on the train path
//         mine_gskip:  ret
//
//   RSB:  mine_gadget: call mine_tramp      ; tramp rewrites its own return
//                      <mined body>         ; only ever reached transiently
//         mine_gskip:  ret
//
// Address immediates inside the body (movi of a link-time address) are
// re-anchored onto embedded copies of the victim image's segments, so the
// body touches memory the replay program owns. The driver mirrors the
// existing attack programs byte for byte where it matters: the probe loop
// reaches an mfence before its first timed load, which is also what
// terminates the transient continuation that falls off the gadget's ret
// (run_wrong_path ends the episode at the first fence).
//
// Synthesis is best-effort static construction; the caller (mine_source)
// self-checks the program against a planted secret before a gadget becomes
// scenario-eligible, so any residual mismatch here costs eligibility, never
// correctness.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "casm/assembler.hpp"
#include "isa/isa.hpp"
#include "mine/emul.hpp"
#include "mine/mine.hpp"
#include "sim/program.hpp"

namespace crs::mine {
namespace {

using detail::SymRegs;
using detail::SymVal;
using isa::Opcode;
using isa::OpClass;

constexpr std::uint64_t kSlot = 8;
constexpr std::uint64_t kScratchSize = 4096;
constexpr std::int64_t kScratchFill = 2048;  ///< fill registers mid-buffer
constexpr std::uint64_t kMaxEmbedded = 64 * 1024;
constexpr int kSecretCap = 256;  ///< mine_out capacity (bytes per run)

std::string reg(int r) { return std::string(isa::register_name(r)); }

bool fits_i32(std::int64_t v) {
  return v >= std::numeric_limits<std::int32_t>::min() &&
         v <= std::numeric_limits<std::int32_t>::max();
}

struct RegRW {
  bool r1 = false, r2 = false;
  int w = -1;
};

/// Register operands an instruction reads/writes (straight-line classes
/// only; the classifier excluded control flow from windows).
RegRW instr_rw(const isa::Instruction& in) {
  RegRW rw;
  switch (isa::op_class(in.op)) {
    case OpClass::kAlu:
      rw.w = in.rd;
      switch (in.op) {
        case Opcode::kMovImm:
          break;
        case Opcode::kMov:
        case Opcode::kAddImm:
        case Opcode::kMulImm:
        case Opcode::kAndImm:
        case Opcode::kOrImm:
        case Opcode::kXorImm:
        case Opcode::kShlImm:
        case Opcode::kShrImm:
          rw.r1 = true;
          break;
        default:  // three-register forms
          rw.r1 = rw.r2 = true;
          break;
      }
      break;
    case OpClass::kLoad:
      rw.r1 = true;
      rw.w = in.rd;
      break;
    case OpClass::kStore:
      rw.r1 = rw.r2 = true;
      break;
    case OpClass::kFlush:
      rw.r1 = true;
      break;
    case OpClass::kRdCycle:
      rw.w = in.rd;
      break;
    default:
      break;  // kNop
  }
  return rw;
}

/// Base symbols the re-anchored body can reference: one per original image
/// segment, plus the canonical scratch buffer as the last entry.
struct Anchor {
  std::string label;
  std::uint64_t size = 0;
  int segment = -1;  ///< index into the original image; -1 = scratch
};

std::string anchor_ref(const Anchor& a, std::int64_t off) {
  if (off == 0) return a.label;
  return a.label + (off >= 0 ? "+" : "") + std::to_string(off);
}

/// `.byte`/`.space` emission of an embedded segment copy.
void emit_bytes(std::string* s, const std::vector<std::uint8_t>& bytes) {
  std::size_t i = 0;
  while (i < bytes.size()) {
    std::size_t zeros = 0;
    while (i + zeros < bytes.size() && bytes[i + zeros] == 0) ++zeros;
    if (zeros >= 32 || (zeros > 0 && i + zeros == bytes.size())) {
      *s += "  .space " + std::to_string(zeros) + ", 0\n";
      i += zeros;
      continue;
    }
    std::string row = "  .byte ";
    for (int n = 0; n < 16 && i < bytes.size(); ++n, ++i) {
      if (n > 0) row += ", ";
      row += std::to_string(bytes[i]);
    }
    *s += row + "\n";
  }
}

struct BodyPlan {
  std::vector<isa::Instruction> instrs;
  /// instr index -> anchor index for movis rewritten onto an embedded copy.
  std::vector<int> movi_anchor;
  std::vector<std::int64_t> movi_off;
  std::vector<bool> body_reads;  ///< registers live-in to the window
  // Solved addressing:
  int load_anchor = -1;  ///< anchor the attacker-steered load offsets from
  std::int64_t load_add = 0;
  int xmit_anchor = -1;
  std::int64_t xmit_val = 0;
  std::int64_t xmit_add = 0;
};

int find_segment(const sim::Program& prog, std::uint64_t addr) {
  for (std::size_t i = 0; i < prog.segments.size(); ++i) {
    const auto& seg = prog.segments[i];
    if (!seg.bytes.empty() && addr >= seg.addr &&
        addr < seg.addr + seg.bytes.size()) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Decodes the window, plans the movi re-anchoring, and solves the load /
/// transmit addressing in the replay program's own layout. Returns nullopt
/// when the body is not expressible as a safe architectural program.
std::optional<BodyPlan> plan_body(const sim::Program& orig,
                                  const WindowCandidate& cand,
                                  const std::vector<Anchor>& anchors) {
  if (cand.load_width != 1) return std::nullopt;  // byte recovery only
  if (cand.attacker_reg < 0 || cand.attacker_reg >= isa::kStackPointer) {
    return std::nullopt;
  }
  const int scratch = static_cast<int>(anchors.size()) - 1;
  BodyPlan plan;
  plan.body_reads.assign(isa::kNumRegisters, false);
  std::array<bool, isa::kNumRegisters> written{};

  for (int i = 0; i < cand.window_len; ++i) {
    auto in = detail::decode_at(
        orig, cand.window_addr + static_cast<std::uint64_t>(i) * kSlot);
    if (!in) return std::nullopt;
    const OpClass cls = isa::op_class(in->op);
    if (cls == OpClass::kPush || cls == OpClass::kPop) {
      return std::nullopt;  // stack traffic is not replayable standalone
    }
    if (cls != OpClass::kAlu && cls != OpClass::kLoad &&
        cls != OpClass::kStore && cls != OpClass::kFlush &&
        cls != OpClass::kRdCycle && cls != OpClass::kNop) {
      return std::nullopt;
    }
    const RegRW rw = instr_rw(*in);
    if (rw.r1 && !written[in->rs1]) plan.body_reads[in->rs1] = true;
    if (rw.r2 && !written[in->rs2]) plan.body_reads[in->rs2] = true;
    if (rw.w >= 0) written[rw.w] = true;
    // movi of a link-time address -> anchored onto the embedded copy.
    int anchor = -1;
    std::int64_t off = 0;
    if (in->op == Opcode::kMovImm) {
      const auto addr = static_cast<std::int64_t>(in->imm);
      if (addr > 0) {
        const int seg = find_segment(orig, static_cast<std::uint64_t>(addr));
        if (seg >= 0) {
          anchor = seg;
          off = addr - static_cast<std::int64_t>(orig.segments[seg].addr);
        }
      }
    }
    plan.movi_anchor.push_back(anchor);
    plan.movi_off.push_back(off);
    plan.instrs.push_back(*in);
  }
  if (plan.body_reads[isa::kStackPointer]) return std::nullopt;

  // Symbolic walk in the replay layout: live-in registers point mid-scratch,
  // the attacker register is symbolic, rewritten movis are anchored.
  SymRegs regs{};
  for (int r = 0; r < isa::kNumRegisters; ++r) {
    regs[r] = plan.body_reads[r] ? SymVal::anchored(scratch, kScratchFill)
                                 : SymVal::unknown();
  }
  regs[cand.attacker_reg] = SymVal::attacker();

  const int load_idx =
      static_cast<int>((cand.load_addr - cand.window_addr) / kSlot);
  const int xmit_idx = cand.window_len - 1;
  bool solved = false;

  auto anchored_slot = [&](const SymVal& ea, int width,
                           std::int64_t* off_out) {
    if (!ea.known || ea.anchor < 0 || ea.base != 0 || ea.val != 0) {
      return false;
    }
    const auto size =
        static_cast<std::int64_t>(anchors[static_cast<std::size_t>(ea.anchor)]
                                      .size);
    if (ea.add < 0 || ea.add + width > size) return false;
    *off_out = ea.add;
    return true;
  };

  for (int i = 0; i < cand.window_len; ++i) {
    const isa::Instruction& in = plan.instrs[static_cast<std::size_t>(i)];
    const OpClass cls = isa::op_class(in.op);
    if (cls == OpClass::kLoad) {
      const int width = in.op == Opcode::kLoadB ? 1 : 8;
      SymVal ea = detail::sym_add(
          regs[in.rs1], SymVal::constant(static_cast<std::int64_t>(in.imm)),
          +1);
      if (i == load_idx) {
        if (!ea.known || ea.base != 1 || ea.val != 0) return std::nullopt;
        plan.load_anchor = ea.anchor;
        plan.load_add = ea.add;
        regs[in.rd] = SymVal::secret_value();
      } else if (i == xmit_idx) {
        if (!ea.known || ea.anchor < 0 || ea.base != 0 || ea.val == 0) {
          return std::nullopt;
        }
        // Probe entries must be line-distinct and in-bounds for all 256
        // values the transient load can produce.
        if (ea.val < 64 && ea.val > -64) return std::nullopt;
        const auto size = static_cast<std::int64_t>(
            anchors[static_cast<std::size_t>(ea.anchor)].size);
        const std::int64_t lo = ea.add + (ea.val < 0 ? ea.val * 255 : 0);
        const std::int64_t hi = ea.add + (ea.val > 0 ? ea.val * 255 : 0);
        if (lo < 0 || hi + width > size) return std::nullopt;
        plan.xmit_anchor = ea.anchor;
        plan.xmit_val = ea.val;
        plan.xmit_add = ea.add;
        solved = true;
        break;
      } else {
        std::int64_t off = 0;
        if (!anchored_slot(ea, width, &off)) return std::nullopt;
        const Anchor& a = anchors[static_cast<std::size_t>(ea.anchor)];
        if (a.segment >= 0) {
          auto v = detail::read_image(
              orig,
              orig.segments[static_cast<std::size_t>(a.segment)].addr +
                  static_cast<std::uint64_t>(off),
              width);
          regs[in.rd] = v ? SymVal::constant(static_cast<std::int64_t>(*v))
                          : SymVal::unknown();
        } else {
          regs[in.rd] = SymVal::unknown();  // scratch contents change
        }
      }
    } else if (cls == OpClass::kStore || cls == OpClass::kFlush) {
      const int width = in.op == Opcode::kStoreB ? 1 : 8;
      SymVal ea = detail::sym_add(
          regs[in.rs1], SymVal::constant(static_cast<std::int64_t>(in.imm)),
          +1);
      std::int64_t off = 0;
      if (!anchored_slot(ea, cls == OpClass::kFlush ? 1 : width, &off)) {
        return std::nullopt;  // only embedded memory may be touched
      }
    } else if (cls == OpClass::kAlu) {
      const int a = plan.movi_anchor[static_cast<std::size_t>(i)];
      regs[in.rd] = a >= 0 ? SymVal::anchored(
                                 a, plan.movi_off[static_cast<std::size_t>(i)])
                           : detail::sym_alu(in, regs);
    } else if (cls == OpClass::kRdCycle) {
      regs[in.rd] = SymVal::unknown();
    }
    // kNop: nothing.
  }
  if (!solved) return std::nullopt;
  if (!fits_i32(-plan.load_add)) return std::nullopt;
  return plan;
}

/// Registers the driver may clobber around the gadget call.
std::vector<int> free_registers(const BodyPlan& plan, int attacker_reg) {
  std::vector<int> free;
  for (int r = 0; r < isa::kStackPointer; ++r) {
    if (!plan.body_reads[static_cast<std::size_t>(r)] && r != attacker_reg) {
      free.push_back(r);
    }
  }
  return free;
}

/// One re-emitted body line.
std::string body_line(const BodyPlan& plan, const std::vector<Anchor>& anchors,
                      std::size_t i) {
  const int a = plan.movi_anchor[i];
  if (a >= 0) {
    return "  movi " + reg(plan.instrs[i].rd) + ", " +
           anchor_ref(anchors[static_cast<std::size_t>(a)], plan.movi_off[i]);
  }
  return "  " + isa::disassemble(plan.instrs[i]);
}

/// Emits the register fills + attacker-pointer computation shared by the
/// train and trigger blocks. `secret` selects the planted-secret target
/// (with the per-round byte index in `tmp`) over the benign train target.
void emit_aim(std::string* s, const BodyPlan& plan,
              const std::vector<Anchor>& anchors, int attacker_reg, int tmp,
              bool secret) {
  for (int r = 0; r < isa::kStackPointer; ++r) {
    if (!plan.body_reads[static_cast<std::size_t>(r)] || r == attacker_reg) {
      continue;
    }
    *s += "  movi " + reg(r) + ", " +
          anchor_ref(anchors.back(), kScratchFill) + "\n";
  }
  const std::string rt = reg(attacker_reg);
  if (secret) {
    *s += "  movi " + reg(tmp) + ", mine_state\n";
    *s += "  load " + reg(tmp) + ", [" + reg(tmp) + "]\n";
    *s += "  movi " + rt + ", mine_secret_base\n";
    *s += "  add " + rt + ", " + rt + ", " + reg(tmp) + "\n";
    if (plan.load_add != 0) {
      *s += "  addi " + rt + ", " + rt + ", " +
            std::to_string(-plan.load_add) + "\n";
    }
  } else {
    *s += "  movi " + rt + ", " +
          anchor_ref({.label = "mine_benign"}, -plan.load_add) + "\n";
  }
  if (plan.load_anchor >= 0) {
    const Anchor& a = anchors[static_cast<std::size_t>(plan.load_anchor)];
    *s += "  movi " + reg(tmp) + ", " + a.label + "\n";
    *s += "  sub " + rt + ", " + rt + ", " + reg(tmp) + "\n";
  }
}

}  // namespace

std::string synthesize_attack_source(const sim::Program& orig,
                                     const WindowCandidate& cand,
                                     const MineOptions& options) {
  std::vector<Anchor> anchors;
  for (std::size_t i = 0; i < orig.segments.size(); ++i) {
    anchors.push_back({.label = "mine_img" + std::to_string(i),
                       .size = orig.segments[i].bytes.size(),
                       .segment = static_cast<int>(i)});
  }
  anchors.push_back(
      {.label = "mine_scratch", .size = kScratchSize, .segment = -1});

  auto plan = plan_body(orig, cand, anchors);
  if (!plan) return {};

  // Which embedded copies the body actually needs.
  std::vector<bool> used(orig.segments.size(), false);
  auto mark = [&](int a) {
    if (a >= 0 && anchors[static_cast<std::size_t>(a)].segment >= 0) {
      used[static_cast<std::size_t>(a)] = true;
    }
  };
  mark(plan->load_anchor);
  mark(plan->xmit_anchor);
  for (const int a : plan->movi_anchor) mark(a);
  std::uint64_t embedded = 0;
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (used[i]) embedded += orig.segments[i].bytes.size();
  }
  if (embedded > kMaxEmbedded) return {};

  const bool pht = cand.trigger == TriggerKind::kCondBranch;
  const std::vector<int> free = free_registers(*plan, cand.attacker_reg);
  if (free.size() < (pht ? 4u : 2u)) return {};
  // PHT: condition, compare result, zero; both: one temporary.
  const int rc = pht ? free[0] : -1;
  const int rcc = pht ? free[1] : free[0];  // RSB: trampoline register
  const int rz = pht ? free[2] : -1;
  const int t1 = pht ? free[3] : free[1];

  const Anchor& xa = anchors[static_cast<std::size_t>(plan->xmit_anchor)];

  std::string s;
  s += "; synthesized replay program (mine/synth.cpp) -- trigger ";
  s += trigger_kind_name(cand.trigger) + " @0x";
  char hexbuf[32];
  std::snprintf(hexbuf, sizeof hexbuf, "%llx",
                static_cast<unsigned long long>(cand.trigger_addr));
  s += hexbuf;
  s += ", window ";
  s += std::to_string(cand.window_len) + " instrs\n";
  s += ".entry _start\n";
  s += "_start:\n";
  s += "  movi r1, mine_state\n";
  s += "  movi r2, 0\n";
  s += "  store [r1], r2\n";
  s += "mine_round:\n";
  if (pht) {
    // Mistrain: the branch architecturally falls through the body while the
    // attacker register points at a benign in-bounds buffer.
    for (int k = 0; k < std::max(1, options.train_iterations); ++k) {
      emit_aim(&s, *plan, anchors, cand.attacker_reg, t1, /*secret=*/false);
      s += "  movi " + reg(rz) + ", 0\n";
      s += "  movi " + reg(rc) + ", 0\n";
      s += "  call mine_gadget\n";
    }
  }
  // Flush every probe entry (clears train-round warming too), plus the
  // condition slot so the trigger branch resolves late.
  s += "  movi r0, mine_probe_tbl\n";
  s += "  movi r1, 256\n";
  s += "mine_flush_loop:\n";
  s += "  load r2, [r0]\n";
  s += "  clflush [r2]\n";
  s += "  addi r0, r0, 8\n";
  s += "  addi r1, r1, -1\n";
  s += "  bnez r1, mine_flush_loop\n";
  if (pht) {
    s += "  movi r0, mine_cond_slot\n";
    s += "  clflush [r0]\n";
  }
  s += "  mfence\n";
  // Trigger: aim the attacker register at the next secret byte and fire.
  emit_aim(&s, *plan, anchors, cand.attacker_reg, t1, /*secret=*/true);
  if (pht) {
    s += "  movi " + reg(rz) + ", 0\n";
    s += "  movi " + reg(rc) + ", mine_cond_slot\n";
    s += "  load " + reg(rc) + ", [" + reg(rc) + "]\n";
  }
  s += "  call mine_gadget\n";
  // Probe: argmin access latency over the 256 entries. The mfence before the
  // first timed load doubles as the terminator for the transient
  // continuation that falls off the gadget's ret.
  s += "  movi r0, 0\n";
  s += "  movi r5, -1\n";
  s += "  movi r6, 0\n";
  s += "mine_probe_loop:\n";
  s += "  movi r3, mine_probe_tbl\n";
  s += "  shli r4, r0, 3\n";
  s += "  add r3, r3, r4\n";
  s += "  load r3, [r3]\n";
  s += "  mfence\n";
  s += "  rdcycle r1\n";
  s += "  loadb r4, [r3]\n";
  s += "  mov r7, r4\n";
  s += "  mfence\n";
  s += "  rdcycle r2\n";
  s += "  sub r1, r2, r1\n";
  s += "  cmpltu r4, r1, r5\n";
  s += "  beqz r4, mine_probe_next\n";
  s += "  mov r5, r1\n";
  s += "  mov r6, r0\n";
  s += "mine_probe_next:\n";
  s += "  addi r0, r0, 1\n";
  s += "  movi r2, 256\n";
  s += "  cmpltu r2, r0, r2\n";
  s += "  bnez r2, mine_probe_loop\n";
  // Record the recovered byte, advance, loop until the secret is out.
  s += "  movi r2, mine_state\n";
  s += "  load r3, [r2]\n";
  s += "  movi r1, mine_out\n";
  s += "  add r1, r1, r3\n";
  s += "  storeb [r1], r6\n";
  s += "  addi r3, r3, 1\n";
  s += "  store [r2], r3\n";
  s += "  movi r4, mine_secret_len\n";
  s += "  cmpltu r4, r3, r4\n";
  s += "  bnez r4, mine_round\n";
  s += "  movi r1, mine_out\n";
  s += "  movi r2, mine_secret_len\n";
  s += "  call print\n";
  s += "  movi r1, 0\n";
  s += "  call exit_\n";
  // The gadget, mined body verbatim (movi address immediates re-anchored).
  s += "mine_gadget:\n";
  if (pht) {
    s += "  cmpltu " + reg(rcc) + ", " + reg(rz) + ", " + reg(rc) + "\n";
    s += "  bnez " + reg(rcc) + ", mine_gskip\n";
  } else {
    s += "  call mine_tramp\n";
  }
  for (std::size_t i = 0; i < plan->instrs.size(); ++i) {
    s += body_line(*plan, anchors, i) + "\n";
  }
  s += "mine_gskip:\n";
  s += "  ret\n";
  if (!pht) {
    // Rewrites its own return slot: the RSB still predicts the body.
    s += "mine_tramp:\n";
    s += "  movi " + reg(rcc) + ", mine_gskip\n";
    s += "  store [r15], " + reg(rcc) + "\n";
    s += "  clflush [r15]\n";
    s += "  mfence\n";
    s += "  ret\n";
  }
  s += ".data\n";
  s += ".align 64\n";
  s += "mine_state:\n  .word 0\n";
  if (pht) {
    // Own cache line: the trigger phase reads mine_state after the flush,
    // and a shared line would silently re-warm the flushed condition slot
    // (collapsing the speculation budget to ~1 instruction).
    s += ".align 64\n";
    s += "mine_cond_slot:\n  .word 1\n";
    s += ".align 64\n";
    s += "mine_benign:\n  .space 64, 0\n";
  }
  s += ".align 64\n";
  s += "mine_out:\n  .space " + std::to_string(kSecretCap) + ", 0\n";
  s += ".align 64\n";
  s += "mine_probe_tbl:\n";
  for (int v = 0; v < 256; ++v) {
    s += "  .word " + anchor_ref(xa, plan->xmit_add + plan->xmit_val * v) +
         "\n";
  }
  s += ".align 64\n";
  s += "mine_scratch:\n  .space " + std::to_string(kScratchSize) + ", 0\n";
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (!used[i]) continue;
    s += ".align 64\n";
    s += anchors[i].label + ":\n";
    emit_bytes(&s, orig.segments[i].bytes);
  }
  return s;
}

std::string wrap_attack_standalone(const std::string& attack_source,
                                   const std::string& secret) {
  std::string s = attack_source;
  const std::size_t len = std::min<std::size_t>(secret.size(), kSecretCap);
  s += "\n.equ mine_secret_len, " + std::to_string(len) + "\n";
  s += ".data\n";
  s += ".align 64\n";
  s += "mine_secret_base:\n";
  s += "  .ascii \"" + casm::escape_ascii(secret.substr(0, len)) + "\"\n";
  return s;
}

}  // namespace crs::mine
