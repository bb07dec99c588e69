#include "sim/cpu.hpp"

#include <algorithm>
#include <atomic>
#include <string>

#include "obs/trace.hpp"
#include "sim/block_cache.hpp"
#include "sim/block_exec.hpp"
#include "support/error.hpp"

namespace crs::sim {

using isa::Instruction;
using isa::Opcode;
using isa::OpClass;

namespace {

// Constant-initialized, so a config built during static initialization
// already sees it.
std::atomic<ExecEngine> g_default_exec_engine{ExecEngine::kBlocks};

}  // namespace

ExecEngine default_exec_engine() {
  return g_default_exec_engine.load(std::memory_order_relaxed);
}

void set_default_exec_engine(ExecEngine engine) {
  g_default_exec_engine.store(engine, std::memory_order_relaxed);
}

const char* exec_engine_name(ExecEngine engine) {
  return engine == ExecEngine::kInterp ? "interp" : "blocks";
}

std::optional<ExecEngine> parse_exec_engine(std::string_view name) {
  if (name == "interp") return ExecEngine::kInterp;
  if (name == "blocks") return ExecEngine::kBlocks;
  return std::nullopt;
}

void apply_exec_flag(std::string_view value) {
  const std::optional<ExecEngine> engine = parse_exec_engine(value);
  if (!engine) {
    throw Error("--exec wants 'interp' or 'blocks', got '" +
                std::string(value) + "'");
  }
  set_default_exec_engine(*engine);
}

Cpu::Cpu(Memory& memory, MemoryHierarchy& hierarchy,
         BranchPredictor& predictor, Pmu& pmu, const CpuConfig& config)
    : memory_(memory),
      hierarchy_(hierarchy),
      predictor_(predictor),
      pmu_(pmu),
      config_(config),
      dcache_(memory) {
  if (config_.exec_engine == ExecEngine::kBlocks) {
    bcache_ = std::make_unique<BlockCache>(memory, config_.mul_latency,
                                           config_.div_latency);
  }
}

Cpu::~Cpu() = default;

void Cpu::reset(std::uint64_t entry_pc, std::uint64_t stack_top) {
  for (auto& r : regs_) r = 0;
  for (auto& r : reg_ready_) r = 0;
  pc_ = entry_pc;
  set_sp(stack_top);
  halted_ = false;
  fault_ = Fault{};
}

std::uint64_t Cpu::reg(int r) const {
  CRS_ENSURE(r >= 0 && r < isa::kNumRegisters, "register index out of range");
  return regs_[r];
}

void Cpu::set_reg(int r, std::uint64_t value) {
  CRS_ENSURE(r >= 0 && r < isa::kNumRegisters, "register index out of range");
  regs_[r] = value;
}

void Cpu::raise_fault(FaultKind kind, std::uint64_t addr) {
  fault_ = Fault{kind, pc_, addr};
  halted_ = true;
}

std::uint64_t Cpu::max_ready() const {
  std::uint64_t m = cycle_;
  for (const auto r : reg_ready_) m = std::max(m, r);
  return m;
}

void Cpu::attribute_data_access(const AccessOutcome& outcome) {
  pmu_.add(Event::kL1dAccesses);
  if (!outcome.l1_hit) {
    pmu_.add(Event::kL1dMisses);
    pmu_.add(Event::kL2Accesses);
    if (!outcome.l2_hit) pmu_.add(Event::kL2Misses);
  }
}

inline std::uint64_t Cpu::alu_result(const Instruction& instr, std::uint64_t a,
                              std::uint64_t b) const {
  const auto imm64 = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(instr.imm));
  switch (instr.op) {
    case Opcode::kMovImm:
      return imm64;
    case Opcode::kMov:
      return a;
    case Opcode::kAdd:
      return a + b;
    case Opcode::kSub:
      return a - b;
    case Opcode::kMul:
      return a * b;
    case Opcode::kDivu:
      return b == 0 ? ~0ull : a / b;
    case Opcode::kRemu:
      return b == 0 ? a : a % b;
    case Opcode::kAnd:
      return a & b;
    case Opcode::kOr:
      return a | b;
    case Opcode::kXor:
      return a ^ b;
    case Opcode::kShl:
      return a << (b & 63);
    case Opcode::kShr:
      return a >> (b & 63);
    case Opcode::kSar:
      return static_cast<std::uint64_t>(static_cast<std::int64_t>(a) >>
                                        (b & 63));
    case Opcode::kAddImm:
      return a + imm64;
    case Opcode::kMulImm:
      return a * imm64;
    case Opcode::kAndImm:
      return a & imm64;
    case Opcode::kOrImm:
      return a | imm64;
    case Opcode::kXorImm:
      return a ^ imm64;
    case Opcode::kShlImm:
      return a << (static_cast<std::uint64_t>(instr.imm) & 63);
    case Opcode::kShrImm:
      return a >> (static_cast<std::uint64_t>(instr.imm) & 63);
    case Opcode::kCmpLt:
      return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b) ? 1 : 0;
    case Opcode::kCmpLtu:
      return a < b ? 1 : 0;
    case Opcode::kCmpEq:
      return a == b ? 1 : 0;
    case Opcode::kCmpNe:
      return a != b ? 1 : 0;
    default:
      CRS_ENSURE(false, "alu_result on non-ALU opcode");
  }
}

inline void Cpu::exec_alu(const DecodedSlot& slot) {
  const Instruction& instr = slot.instr;
  const std::uint64_t a = slot.reads_rs1 ? regs_[instr.rs1] : 0;
  const std::uint64_t b = slot.reads_rs2 ? regs_[instr.rs2] : 0;
  std::uint64_t issue = cycle_;
  if (slot.reads_rs1) issue = std::max(issue, ready_at(instr.rs1));
  if (slot.reads_rs2) issue = std::max(issue, ready_at(instr.rs2));
  std::uint32_t latency = 1;
  if (instr.op == Opcode::kMul || instr.op == Opcode::kMulImm) {
    latency = config_.mul_latency;
  } else if (instr.op == Opcode::kDivu || instr.op == Opcode::kRemu) {
    latency = config_.div_latency;
  }
  regs_[instr.rd] = alu_result(instr, a, b);
  set_ready(instr.rd, issue + latency);
  pmu_.add(Event::kAluOps);
  // Out-of-order issue: ALU ops do not stall the front end; dependent
  // timing propagates through the scoreboard and materialises at branches
  // (resolution delay) and fences. This is what opens Spectre's window.
  cycle_ += 1;
  pc_ += isa::kInstructionSize;
}

void Cpu::exec_load(const Instruction& instr) {
  const std::uint64_t ea =
      regs_[instr.rs1] + static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(instr.imm));
  const std::uint64_t width = instr.op == Opcode::kLoad ? 8 : 1;
  if (!memory_.check(ea, width, AccessKind::kRead)) {
    raise_fault(FaultKind::kReadPermission, ea);
    return;
  }
  const std::uint64_t issue = std::max(cycle_, ready_at(instr.rs1));
  const AccessOutcome outcome = hierarchy_.access_data(ea);
  attribute_data_access(outcome);
  pmu_.add(Event::kLoads);
  regs_[instr.rd] = instr.op == Opcode::kLoad
                        ? memory_.read_u64(ea)
                        : static_cast<std::uint64_t>(memory_.read_u8(ea));
  // Non-blocking load: the result becomes ready after the cache latency.
  // Misses additionally cost front-end throughput (finite MSHRs/MLP), so
  // miss-heavy code gets a realistically low IPC without serialising the
  // branch-resolution path that Spectre's window depends on.
  std::uint32_t latency = outcome.latency;
  if (config_.slh) {
    // SLH routes every load result through the poison-mask data path.
    latency += 1;
    ++mstats_.slh_hardened_loads;
  }
  set_ready(instr.rd, issue + latency);
  std::uint32_t throughput = 1;
  if (!outcome.l1_hit) throughput += outcome.l2_hit ? 2 : 6;
  cycle_ += throughput;
  pc_ += isa::kInstructionSize;
}

void Cpu::exec_store(const Instruction& instr) {
  const std::uint64_t ea =
      regs_[instr.rs1] + static_cast<std::uint64_t>(
                             static_cast<std::int64_t>(instr.imm));
  const std::uint64_t width = instr.op == Opcode::kStore ? 8 : 1;
  if (!memory_.check(ea, width, AccessKind::kWrite)) {
    raise_fault(FaultKind::kWritePermission, ea);
    return;
  }
  const AccessOutcome outcome = hierarchy_.access_data(ea);
  attribute_data_access(outcome);
  pmu_.add(Event::kStores);
  if (instr.op == Opcode::kStore) {
    memory_.write_u64(ea, regs_[instr.rs2]);
  } else {
    memory_.write_u8(ea, static_cast<std::uint8_t>(regs_[instr.rs2]));
  }
  // Stores drain through the store buffer: no stall on the data value.
  cycle_ += 1;
  pc_ += isa::kInstructionSize;
}

void Cpu::exec_cond_branch(const DecodedSlot& slot) {
  const CondBranchPlan plan = plan_cond_branch(slot, pc_, cycle_);
  pmu_.add(Event::kBranches);
  if (plan.taken) pmu_.add(Event::kTakenBranches);
  if (plan.fenced) ++mstats_.fence_stalls;
  if (plan.mispredicted) {
    pmu_.add(Event::kBranchMispredicts);
    // A fenced misprediction is detected at resolution with nothing to
    // squash — the speculation window the fence closed.
    if (plan.fenced) ++mstats_.fence_squashes;
    // The episode runs at the branch's own cycle_, before it retires.
    if (plan.spec_budget > 0) run_wrong_path(plan.spec_pc, plan.spec_budget);
  }
  cycle_ = plan.next_cycle;
  predictor_.pht().update(pc_, plan.taken);
  pc_ = plan.next_pc;
}

void Cpu::exec_indirect_jump(const Instruction& instr) {
  const std::uint64_t actual = regs_[instr.rs1];
  const std::uint64_t resolve_at = std::max(cycle_, ready_at(instr.rs1));
  const auto predicted = predictor_.btb().predict(pc_);

  pmu_.add(Event::kIndirectJumps);
  if (config_.no_indirect_speculation) {
    // Retpoline: the front end never consumes a BTB prediction; it waits
    // for the real target. No BTB update either — the thunk leaves nothing
    // for an attacker to poison.
    ++mstats_.retpoline_suppressions;
    cycle_ = resolve_at + 2;
    pc_ = actual;
    return;
  }
  if (predicted.has_value() && *predicted != actual) {
    pmu_.add(Event::kBranchMispredicts);
    const std::uint64_t budget =
        std::min<std::uint64_t>(resolve_at - cycle_, config_.max_spec_window);
    if (budget > 0) run_wrong_path(*predicted, budget);
    cycle_ = resolve_at + config_.mispredict_penalty;
  } else if (!predicted.has_value()) {
    cycle_ = resolve_at + 2;  // front end waits for the target
  } else {
    cycle_ += 1;
  }
  predictor_.btb().update(pc_, actual);
  pc_ = actual;
}

void Cpu::exec_call(const Instruction& instr) {
  const std::uint64_t return_address = pc_ + isa::kInstructionSize;
  const std::uint64_t target = instr.op == Opcode::kCall
                                   ? static_cast<std::uint32_t>(instr.imm)
                                   : regs_[instr.rs1];
  const std::uint64_t new_sp = sp() - 8;
  if (!memory_.check(new_sp, 8, AccessKind::kWrite)) {
    raise_fault(FaultKind::kWritePermission, new_sp);
    return;
  }
  memory_.write_u64(new_sp, return_address);
  set_sp(new_sp);
  const AccessOutcome outcome = hierarchy_.access_data(new_sp);
  attribute_data_access(outcome);
  pmu_.add(Event::kStores);
  pmu_.add(Event::kStackOps);
  pmu_.add(Event::kCalls);
  predictor_.rsb().push(return_address);

  if (instr.op == Opcode::kCallReg) {
    pmu_.add(Event::kIndirectJumps);
    const auto predicted = predictor_.btb().predict(pc_);
    const std::uint64_t resolve_at = std::max(cycle_, ready_at(instr.rs1));
    if (config_.no_indirect_speculation) {
      ++mstats_.retpoline_suppressions;
      cycle_ = resolve_at + 2;
      pc_ = target;
      return;
    }
    if (predicted.has_value() && *predicted != target) {
      pmu_.add(Event::kBranchMispredicts);
      const std::uint64_t budget = std::min<std::uint64_t>(
          resolve_at - cycle_, config_.max_spec_window);
      if (budget > 0) run_wrong_path(*predicted, budget);
      cycle_ = resolve_at + config_.mispredict_penalty;
    } else if (!predicted.has_value()) {
      cycle_ = resolve_at + 2;
    } else {
      cycle_ += 1;
    }
    predictor_.btb().update(pc_, target);
  } else {
    cycle_ += 1;
  }
  pc_ = target;
}

void Cpu::exec_ret(const Instruction&) {
  const std::uint64_t ret_sp = sp();
  if (!memory_.check(ret_sp, 8, AccessKind::kRead)) {
    raise_fault(FaultKind::kReadPermission, ret_sp);
    return;
  }
  const AccessOutcome outcome = hierarchy_.access_data(ret_sp);
  attribute_data_access(outcome);
  pmu_.add(Event::kLoads);
  pmu_.add(Event::kReturns);
  pmu_.add(Event::kStackOps);

  const std::uint64_t actual = memory_.read_u64(ret_sp);
  set_sp(ret_sp + 8);

  const std::uint64_t resolve_at = cycle_ + outcome.latency;
  // The RSB pop happens regardless of the mitigation so the hardware call
  // stack stays balanced; retpoline merely refuses to *speculate* on it.
  const auto predicted = predictor_.rsb().pop();
  if (config_.no_indirect_speculation) {
    ++mstats_.retpoline_suppressions;
    cycle_ = resolve_at + 2;
    pc_ = actual;
    return;
  }
  if (predicted.has_value() && *predicted != actual) {
    // The return address on the stack disagrees with the call stack the
    // hardware observed — the signature of a ROP overwrite. The CPU
    // transiently executes at the RSB-predicted address (Spectre-RSB).
    pmu_.add(Event::kRsbMispredicts);
    pmu_.add(Event::kBranchMispredicts);
    const std::uint64_t budget =
        std::min<std::uint64_t>(outcome.latency, config_.max_spec_window);
    if (budget > 0) run_wrong_path(*predicted, budget);
    cycle_ = resolve_at + config_.mispredict_penalty;
  } else if (!predicted.has_value()) {
    cycle_ = resolve_at + 2;  // RSB empty: wait for the load
  } else {
    cycle_ += 1;
  }
  pc_ = actual;
}

void Cpu::exec_push_pop(const Instruction& instr) {
  if (instr.op == Opcode::kPush) {
    const std::uint64_t new_sp = sp() - 8;
    if (!memory_.check(new_sp, 8, AccessKind::kWrite)) {
      raise_fault(FaultKind::kWritePermission, new_sp);
      return;
    }
    memory_.write_u64(new_sp, regs_[instr.rs1]);
    set_sp(new_sp);
    const AccessOutcome outcome = hierarchy_.access_data(new_sp);
    attribute_data_access(outcome);
    pmu_.add(Event::kStores);
  } else {  // kPop
    const std::uint64_t cur_sp = sp();
    if (!memory_.check(cur_sp, 8, AccessKind::kRead)) {
      raise_fault(FaultKind::kReadPermission, cur_sp);
      return;
    }
    const AccessOutcome outcome = hierarchy_.access_data(cur_sp);
    attribute_data_access(outcome);
    pmu_.add(Event::kLoads);
    regs_[instr.rd] = memory_.read_u64(cur_sp);
    set_ready(instr.rd, cycle_ + outcome.latency);
    set_sp(cur_sp + 8);
  }
  pmu_.add(Event::kStackOps);
  cycle_ += 1;
  pc_ += isa::kInstructionSize;
}

void Cpu::exec_misc(const Instruction& instr) {
  switch (instr.op) {
    case Opcode::kNop:
      cycle_ += 1;
      pc_ += isa::kInstructionSize;
      break;
    case Opcode::kHalt:
      halted_ = true;
      break;
    case Opcode::kClflush: {
      const std::uint64_t ea =
          regs_[instr.rs1] + static_cast<std::uint64_t>(
                                 static_cast<std::int64_t>(instr.imm));
      if (!memory_.check(ea, 1, AccessKind::kRead)) {
        raise_fault(FaultKind::kReadPermission, ea);
        return;
      }
      hierarchy_.flush_data(ea);
      // Flushing a mapped code line also drops its pre-decoded state; the
      // next fetch from that page re-decodes (and re-translates) from
      // memory. Safe here: clflush never executes inside a translated
      // block, so no live block storage is dropped.
      dcache_.invalidate(ea);
      if (bcache_ != nullptr) bcache_->invalidate(ea);
      pmu_.add(Event::kClflushes);
      cycle_ += hierarchy_.timings().flush_cost;
      pc_ += isa::kInstructionSize;
      break;
    }
    case Opcode::kMfence:
      pmu_.add(Event::kMfences);
      cycle_ = max_ready() + config_.fence_cost;
      pc_ += isa::kInstructionSize;
      break;
    case Opcode::kRdCycle:
      regs_[instr.rd] = cycle_;
      set_ready(instr.rd, cycle_ + 1);
      cycle_ += 1;
      pc_ += isa::kInstructionSize;
      break;
    case Opcode::kSyscall: {
      pmu_.add(Event::kSyscalls);
      cycle_ = max_ready() + config_.syscall_cost;
      pc_ += isa::kInstructionSize;  // handler may overwrite (execve)
      CRS_ENSURE(static_cast<bool>(syscall_handler_),
                 "SYSCALL executed with no handler installed");
      if (syscall_handler_(*this) == SyscallOutcome::kHalt) halted_ = true;
      break;
    }
    default:
      raise_fault(FaultKind::kIllegalInstruction, pc_);
      break;
  }
}

void Cpu::step() {
  if (halted_) return;

  // Front-end fetch: DEP check, then the I-cache access, then decode. The
  // decode cache collapses check+decode into one page-version-validated
  // slot read; unaligned fetch targets (a ROP pivot into mid-instruction
  // bytes) fall back to the uncached path, which handles page straddling.
  DecodedSlot local;
  const DecodedSlot* fetched;
  if (config_.decode_cache && (pc_ % isa::kInstructionSize) == 0) {
    fetched = dcache_.lookup(pc_);
    if (fetched == nullptr) {
      raise_fault(FaultKind::kFetchPermission, pc_);
      return;
    }
  } else {
    if (!memory_.check(pc_, isa::kInstructionSize, AccessKind::kExecute)) {
      raise_fault(FaultKind::kFetchPermission, pc_);
      return;
    }
    local = decode_slot(memory_, pc_);
    fetched = &local;
  }
  const auto fetch = hierarchy_.access_fetch(pc_);
  pmu_.add(Event::kL1iAccesses);
  if (!fetch.l1i_hit) pmu_.add(Event::kL1iMisses);
  cycle_ += fetch.latency;

  if (fetched->state == DecodedSlot::kIllegal) {
    raise_fault(FaultKind::kIllegalInstruction, pc_);
    return;
  }
  // Copy out of the cache: stores and wrong-path episodes below may refresh
  // the page this slot lives in.
  const DecodedSlot slot = *fetched;
  const Instruction& instr = slot.instr;

  pmu_.add(Event::kInstructions);
  ++retired_;

  switch (slot.cls) {
    case OpClass::kAlu:
      exec_alu(slot);
      break;
    case OpClass::kLoad:
      exec_load(instr);
      break;
    case OpClass::kStore:
      exec_store(instr);
      break;
    case OpClass::kCondBranch:
      exec_cond_branch(slot);
      break;
    case OpClass::kJump:
      cycle_ += 1;
      pc_ = static_cast<std::uint32_t>(instr.imm);
      break;
    case OpClass::kIndirectJump:
      exec_indirect_jump(instr);
      break;
    case OpClass::kCall:
    case OpClass::kIndirectCall:
      exec_call(instr);
      break;
    case OpClass::kRet:
      exec_ret(instr);
      break;
    case OpClass::kPush:
    case OpClass::kPop:
      exec_push_pop(instr);
      break;
    default:
      exec_misc(instr);
      break;
  }

  // Step PMU cycle counter to the CPU clock.
  const std::uint64_t pmu_cycles = pmu_.count(Event::kCycles);
  if (cycle_ > pmu_cycles) pmu_.add(Event::kCycles, cycle_ - pmu_cycles);
}

StopReason Cpu::run(std::uint64_t max_instructions) {
  return run_until_cycle(~0ull, max_instructions);
}

StopReason Cpu::run_until_cycle(std::uint64_t cycle_target,
                                std::uint64_t max_instructions) {
  if (bcache_ != nullptr) {
    return BlockExecutor::run(*this, cycle_target, max_instructions);
  }
  const std::uint64_t start_retired = retired_;
  while (!halted_) {
    if (retired_ - start_retired >= max_instructions)
      return StopReason::kInstructionLimit;
    if (cycle_ >= cycle_target) return StopReason::kCycleLimit;
    step();
  }
  return fault_.kind == FaultKind::kNone ? StopReason::kHalted
                                         : StopReason::kFault;
}

// ---------------------------------------------------------------------------
// Wrong-path (transient) execution.
// ---------------------------------------------------------------------------

namespace {

/// Byte-granular speculative store buffer with read-through to memory.
class SpecMemoryView {
 public:
  explicit SpecMemoryView(const Memory& memory) : memory_(memory) {}

  std::uint8_t read_u8(std::uint64_t addr) const {
    for (auto it = writes_.rbegin(); it != writes_.rend(); ++it) {
      if (it->first == addr) return it->second;
    }
    return memory_.read_u8(addr);
  }

  std::uint64_t read_u64(std::uint64_t addr) const {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = (v << 8) | read_u8(addr + static_cast<std::uint64_t>(i));
    }
    return v;
  }

  void write_u8(std::uint64_t addr, std::uint8_t value) {
    writes_.emplace_back(addr, value);
  }

  void write_u64(std::uint64_t addr, std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      write_u8(addr + static_cast<std::uint64_t>(i),
               static_cast<std::uint8_t>(value >> (8 * i)));
    }
  }

 private:
  const Memory& memory_;
  std::vector<std::pair<std::uint64_t, std::uint8_t>> writes_;
};

}  // namespace

void Cpu::run_wrong_path(std::uint64_t spec_pc, std::uint64_t budget) {
  ++spec_episodes_;
  // The episode runs entirely at the checkpointed cycle_, so enter and
  // squash are instants (a zero-width span would render invisibly).
  obs::trace_instant("cpu.spec_enter", cycle_, static_cast<double>(budget));
  std::uint64_t spec_regs[isa::kNumRegisters];
  std::copy(std::begin(regs_), std::end(regs_), std::begin(spec_regs));
  SpecMemoryView view(memory_);
  std::uint64_t pc = spec_pc;
  // The episode's fetch and instruction counts land in one add each when
  // it squashes: nothing reads them in between. Only fetches touch the L1I
  // here, so same-line fetches are batched as in the block engine.
  std::uint64_t n_fetches = 0, n_spec = 0;
  FetchBatch fetches(hierarchy_);

  for (std::uint64_t executed = 0; executed < budget; ++executed) {
    // Wrong-path fetches go through the same decode cache as architectural
    // ones: they see the same DEP faults and the same decoded bytes.
    DecodedSlot wlocal;
    const DecodedSlot* fetched;
    if (config_.decode_cache && (pc % isa::kInstructionSize) == 0) {
      fetched = dcache_.lookup(pc);
      if (fetched == nullptr) break;  // transient fault: squash silently
    } else {
      if (!memory_.check(pc, isa::kInstructionSize, AccessKind::kExecute)) {
        break;  // transient fault: squash silently
      }
      wlocal = decode_slot(memory_, pc);
      fetched = &wlocal;
    }
    // Wrong-path fetches still warm the instruction cache.
    ++n_fetches;
    fetches.fetch(pc);

    if (fetched->state == DecodedSlot::kIllegal) break;
    // Nothing below re-enters the decode cache before the next iteration's
    // lookup, so the slot is read in place.
    const DecodedSlot& slot = *fetched;
    const Instruction& instr = slot.instr;
    ++n_spec;

    switch (slot.cls) {
      case OpClass::kNop:
        pc += isa::kInstructionSize;
        break;
      case OpClass::kAlu:
        spec_regs[instr.rd] =
            alu_result(instr, slot.reads_rs1 ? spec_regs[instr.rs1] : 0,
                       slot.reads_rs2 ? spec_regs[instr.rs2] : 0);
        pc += isa::kInstructionSize;
        break;
      case OpClass::kLoad: {
        const std::uint64_t ea =
            spec_regs[instr.rs1] +
            static_cast<std::uint64_t>(static_cast<std::int64_t>(instr.imm));
        const std::uint64_t width = instr.op == Opcode::kLoad ? 8 : 1;
        if (!memory_.check(ea, width, AccessKind::kRead)) {
          // Fault suppressed; the episode squashes early.
          executed = budget;
          break;
        }
        // THE Spectre side effect: the wrong-path load fills cache lines
        // that survive the squash.
        const AccessOutcome outcome = hierarchy_.access_data(ea);
        attribute_data_access(outcome);
        pmu_.add(Event::kSpecLoads);
        if (config_.slh) {
          // SLH: the *first* wrong-path load still fills its line (as in
          // LLVM SLH), but the value it forwards is poisoned to zero, so a
          // dependent secret-indexed access cannot encode the secret.
          spec_regs[instr.rd] = 0;
          ++mstats_.slh_masked_loads;
        } else {
          spec_regs[instr.rd] =
              instr.op == Opcode::kLoad
                  ? view.read_u64(ea)
                  : static_cast<std::uint64_t>(view.read_u8(ea));
        }
        pc += isa::kInstructionSize;
        break;
      }
      case OpClass::kStore: {
        const std::uint64_t ea =
            spec_regs[instr.rs1] +
            static_cast<std::uint64_t>(static_cast<std::int64_t>(instr.imm));
        const std::uint64_t width = instr.op == Opcode::kStore ? 8 : 1;
        if (!memory_.check(ea, width, AccessKind::kWrite)) {
          executed = budget;
          break;
        }
        // Speculative stores stay in the store buffer: no cache effect.
        if (instr.op == Opcode::kStore) {
          view.write_u64(ea, spec_regs[instr.rs2]);
        } else {
          view.write_u8(ea, static_cast<std::uint8_t>(spec_regs[instr.rs2]));
        }
        pc += isa::kInstructionSize;
        break;
      }
      case OpClass::kCondBranch: {
        if (config_.honor_fence_hints && slot.fence_after) {
          // A fence-hinted branch serialises even on the wrong path.
          executed = budget;
          break;
        }
        // Nested speculation: follow the predictor without updating it.
        const bool taken = predictor_.pht().predict_taken(pc);
        pc = taken ? static_cast<std::uint32_t>(instr.imm)
                   : pc + isa::kInstructionSize;
        break;
      }
      case OpClass::kJump:
        pc = static_cast<std::uint32_t>(instr.imm);
        break;
      case OpClass::kIndirectJump:
        pc = spec_regs[instr.rs1];
        break;
      case OpClass::kCall:
      case OpClass::kIndirectCall: {
        const std::uint64_t ret_addr = pc + isa::kInstructionSize;
        const std::uint64_t new_sp = spec_regs[isa::kStackPointer] - 8;
        if (!memory_.check(new_sp, 8, AccessKind::kWrite)) {
          executed = budget;
          break;
        }
        view.write_u64(new_sp, ret_addr);
        spec_regs[isa::kStackPointer] = new_sp;
        pc = instr.op == Opcode::kCall ? static_cast<std::uint32_t>(instr.imm)
                                       : spec_regs[instr.rs1];
        break;
      }
      case OpClass::kRet: {
        const std::uint64_t cur_sp = spec_regs[isa::kStackPointer];
        if (!memory_.check(cur_sp, 8, AccessKind::kRead)) {
          executed = budget;
          break;
        }
        pc = view.read_u64(cur_sp);
        spec_regs[isa::kStackPointer] = cur_sp + 8;
        break;
      }
      case OpClass::kPush: {
        const std::uint64_t new_sp = spec_regs[isa::kStackPointer] - 8;
        if (!memory_.check(new_sp, 8, AccessKind::kWrite)) {
          executed = budget;
          break;
        }
        view.write_u64(new_sp, spec_regs[instr.rs1]);
        spec_regs[isa::kStackPointer] = new_sp;
        pc += isa::kInstructionSize;
        break;
      }
      case OpClass::kPop: {
        const std::uint64_t cur_sp = spec_regs[isa::kStackPointer];
        if (!memory_.check(cur_sp, 8, AccessKind::kRead)) {
          executed = budget;
          break;
        }
        spec_regs[instr.rd] = view.read_u64(cur_sp);
        spec_regs[isa::kStackPointer] = cur_sp + 8;
        pc += isa::kInstructionSize;
        break;
      }
      case OpClass::kRdCycle:
        spec_regs[instr.rd] = cycle_;
        pc += isa::kInstructionSize;
        break;
      case OpClass::kFlush:
        // clflush is ordered; it does not execute on the wrong path.
        pc += isa::kInstructionSize;
        break;
      case OpClass::kFence:
      case OpClass::kSyscall:
      case OpClass::kHalt:
      default:
        // Serialising instructions stop speculation.
        executed = budget;
        break;
    }
  }
  // Episode ends: spec_regs and the store buffer are discarded. Cache and
  // predictor-adjacent PMU effects remain — that is the covert channel.
  fetches.flush();
  pmu_.add(Event::kL1iAccesses, n_fetches);
  pmu_.add(Event::kL1iMisses, fetches.take_misses());
  pmu_.add(Event::kSpecInstructions, n_spec);
  obs::trace_instant("cpu.spec_squash", cycle_, static_cast<double>(n_spec));
}

}  // namespace crs::sim
