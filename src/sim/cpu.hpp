// Speculative CPU model.
//
// The model is architectural execution plus the three micro-architectural
// behaviours Spectre needs, made explicit:
//
// 1. *Scoreboarded loads*: each register carries a "ready at cycle" time.
//    A load's destination becomes ready only after the cache latency, so a
//    conditional branch whose operand was just loaded from a flushed line
//    resolves late.
// 2. *Bounded wrong-path execution*: when a branch is mispredicted and its
//    resolution is pending, the CPU executes the predicted path for up to
//    `min(resolve delay, max_spec_window)` instructions against a register
//    checkpoint and a store buffer. On resolution everything architectural
//    is rolled back — but data-cache fills performed by wrong-path loads
//    persist. That retained state is the Spectre leak.
// 3. *Predictor-driven redirects* for all three structures: PHT
//    (conditional branches → Spectre-PHT/v1), BTB (indirect jumps), and RSB
//    (returns → Spectre-RSB; also what fires when a ROP payload overwrites
//    a saved return address).
//
// Timing is approximate (scalar, one instruction per cycle plus stalls) but
// internally consistent, which is what the IPC overhead analysis (paper
// Table I) and the HPC-based detector need.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "isa/isa.hpp"
#include "sim/branch_predictor.hpp"
#include "sim/cache.hpp"
#include "sim/decode_cache.hpp"
#include "sim/memory.hpp"
#include "sim/pmu.hpp"

namespace crs::sim {

class BlockCache;
class BlockExecutor;

/// How the CPU executes the architectural instruction stream. Both engines
/// are bit-identical (registers, memory, PMU, cycles, faults, speculation
/// episodes); blocks is a pure simulator-speed optimisation.
enum class ExecEngine : std::uint8_t {
  kInterp = 0,  ///< per-instruction fetch/classify/dispatch (Cpu::step)
  kBlocks = 1,  ///< threaded-code superblocks (sim/block_exec)
};

/// Process-wide default for `CpuConfig::exec_engine`, the value every
/// default-constructed config picks up: blocks, unless the tools' `--exec`
/// flag says otherwise. Set it before building machines.
ExecEngine default_exec_engine();
void set_default_exec_engine(ExecEngine engine);

/// "interp" / "blocks" — the spelling used by flags and bench records.
const char* exec_engine_name(ExecEngine engine);

/// Parses the `--exec` flag spelling; nullopt when unknown.
std::optional<ExecEngine> parse_exec_engine(std::string_view name);

/// The tools' `--exec` flag: sets the process default to the named engine,
/// or throws crs::Error("--exec wants 'interp' or 'blocks', got '<value>'").
void apply_exec_flag(std::string_view value);

struct CpuConfig {
  /// Maximum wrong-path instructions per misprediction episode (ROB-ish).
  std::uint32_t max_spec_window = 64;
  /// How far (in cycles) a result's ready time may run ahead of the front
  /// end before the ROB fills and stalls it. Bounds memory-level
  /// parallelism: dependent-load chains retire at memory latency instead
  /// of deferring their cost to the next serialising instruction.
  std::uint32_t rob_window = 192;
  /// Extra cycles to redirect the front end after a misprediction resolves.
  std::uint32_t mispredict_penalty = 14;
  /// Cycles for mfence beyond draining the scoreboard.
  std::uint32_t fence_cost = 4;
  /// Cycles charged to a syscall (mode switch), also serialising.
  std::uint32_t syscall_cost = 80;
  /// Extra latency for multiply / divide results.
  std::uint32_t mul_latency = 3;
  std::uint32_t div_latency = 12;
  /// Serve fetches from the pre-decoded per-page cache instead of decoding
  /// every instruction word. Purely a simulator-speed optimisation: it must
  /// never change architectural or PMU-visible behaviour (page-version
  /// invalidation preserves self-modifying-code and DEP semantics).
  bool decode_cache = true;
  /// Execution engine for `run`/`run_until_cycle`. Defaults to the
  /// process-wide `default_exec_engine()` (blocks unless overridden by
  /// `--exec interp`). `step()` always interprets — the block engine falls
  /// back to it for serialising and unaligned fetches.
  ExecEngine exec_engine = default_exec_engine();

  // --- speculative-execution mitigations (src/mitigate) ------------------
  /// Honor fence hints planted on conditional branches by the
  /// fence-insertion pass: a hinted branch never speculates (no wrong-path
  /// episode) and serialises the front end on its condition, costing
  /// `fence_cost` like an explicit lfence after the bounds check.
  bool honor_fence_hints = false;
  /// Speculative load hardening: wrong-path load *values* are masked to
  /// zero (the fill of the accessed line still happens — as in LLVM SLH,
  /// it is the dependent access that gets poisoned), and architectural
  /// loads pay one extra cycle for the masking data-path.
  bool slh = false;
  /// Retpoline-style: indirect jumps/calls and returns never speculate on
  /// a predicted target; the front end waits for the real one.
  bool no_indirect_speculation = false;

  auto operator<=>(const CpuConfig&) const = default;
};

/// What the armed CPU-side mitigations did. Plain unconditional counters
/// (NOT obs-gated): every increment sits behind a mitigation flag that is
/// off by default, so the undefended hot path is untouched, and the defense
/// matrix can read ground truth in any build flavour.
struct CpuMitigationStats {
  std::uint64_t fence_stalls = 0;     ///< hinted branches serialised
  std::uint64_t fence_squashes = 0;   ///< mispredictions denied a window
  std::uint64_t slh_hardened_loads = 0;  ///< architectural loads masked-path
  std::uint64_t slh_masked_loads = 0;    ///< wrong-path values zeroed
  std::uint64_t retpoline_suppressions = 0;  ///< indirect predictions skipped
};

enum class FaultKind {
  kNone,
  kFetchPermission,    ///< fetching from a non-executable page (DEP)
  kIllegalInstruction,
  kReadPermission,
  kWritePermission,
  kStackCanary,        ///< raised by the kernel's canary-check syscall
  kHeapRedzone,        ///< torn guarded-heap redzone caught on SYS_HEAP_FREE
};

struct Fault {
  FaultKind kind = FaultKind::kNone;
  std::uint64_t pc = 0;    ///< faulting instruction address
  std::uint64_t addr = 0;  ///< offending data address, when applicable
};

enum class StopReason { kHalted, kFault, kInstructionLimit, kCycleLimit };

/// What a conditional branch will do, decided before any state moves (see
/// Cpu::plan_cond_branch).
struct CondBranchPlan {
  bool taken = false;         ///< architectural outcome
  bool mispredicted = false;  ///< the PHT predicted the other way
  bool fenced = false;        ///< a fence hint is honoured
  std::uint64_t next_pc = 0;
  /// Cycle once the branch retires: resolution plus the redirect penalty
  /// on a misprediction, the fence cost on an honoured hint, else +1.
  std::uint64_t next_cycle = 0;
  /// Start of the predicted (wrong) path and its episode length; the
  /// episode runs iff spec_budget != 0.
  std::uint64_t spec_pc = 0;
  std::uint64_t spec_budget = 0;
};

/// What the kernel's syscall handler tells the CPU to do next.
enum class SyscallOutcome { kContinue, kHalt };

class Cpu {
 public:
  using SyscallHandler = std::function<SyscallOutcome(Cpu&)>;

  Cpu(Memory& memory, MemoryHierarchy& hierarchy, BranchPredictor& predictor,
      Pmu& pmu, const CpuConfig& config = {});
  ~Cpu();

  /// Clears registers, sets pc/sp, clears fault & halt. Does NOT reset the
  /// caches, predictor or PMU — those persist across execve, as on real
  /// hardware.
  void reset(std::uint64_t entry_pc, std::uint64_t stack_top);

  /// Executes one architectural instruction (and any wrong-path episode it
  /// triggers). No-op when halted.
  void step();

  /// Runs until halt/fault or `max_instructions` retired.
  StopReason run(std::uint64_t max_instructions);

  /// Runs until halt/fault, the cycle counter reaches `cycle_target`, or
  /// `max_instructions` retired — the profiler's sampling loop.
  StopReason run_until_cycle(std::uint64_t cycle_target,
                             std::uint64_t max_instructions);

  bool halted() const { return halted_; }
  const Fault& fault() const { return fault_; }

  /// Raises an architectural fault (also used by the kernel, e.g. for the
  /// stack-canary check) and halts.
  void raise_fault(FaultKind kind, std::uint64_t addr);

  std::uint64_t reg(int r) const;
  void set_reg(int r, std::uint64_t value);
  std::uint64_t pc() const { return pc_; }
  void set_pc(std::uint64_t pc) { pc_ = pc; }
  std::uint64_t sp() const { return reg(isa::kStackPointer); }
  void set_sp(std::uint64_t sp) { set_reg(isa::kStackPointer, sp); }

  std::uint64_t cycle() const { return cycle_; }
  std::uint64_t retired() const { return retired_; }

  /// Wrong-path episodes entered (mispredicted branch/jump/return with a
  /// non-zero speculation budget).
  std::uint64_t spec_episodes() const { return spec_episodes_; }

  /// Activity of the armed CPU-side mitigations (all zero by default).
  const CpuMitigationStats& mitigation_stats() const { return mstats_; }

  void set_syscall_handler(SyscallHandler handler) {
    syscall_handler_ = std::move(handler);
  }

  Memory& memory() { return memory_; }
  MemoryHierarchy& hierarchy() { return hierarchy_; }
  BranchPredictor& predictor() { return predictor_; }
  Pmu& pmu() { return pmu_; }
  const CpuConfig& config() const { return config_; }
  const DecodeCache& decode_cache() const { return dcache_; }

  /// Translated-block cache; null when the engine is kInterp.
  const BlockCache* block_cache() const { return bcache_.get(); }
  BlockCache* block_cache() { return bcache_.get(); }

 private:
  // Checkpoint/restore (sim/snapshot.cpp) saves the registers and the
  // counters that Cpu::reset deliberately leaves alone (cycle_, retired_,
  // spec_episodes_, mstats_).
  friend class SnapshotAccess;
  // The threaded-code engine (sim/block_exec.cpp) is the interpreter's
  // other half: it shares the exec_* helpers and the scoreboard state.
  friend class BlockExecutor;

  // -- architectural execution helpers ------------------------------------
  // exec_alu covers >90% of a typical instruction stream; forcing it (and
  // alu_result) into the dispatch loop removes a call per instruction.
  __attribute__((always_inline)) void exec_alu(const DecodedSlot& slot);
  void exec_load(const isa::Instruction& instr);
  void exec_store(const isa::Instruction& instr);
  void exec_cond_branch(const DecodedSlot& slot);
  /// The conditional-branch rule of both engines: prediction, resolution
  /// and timing of the branch `slot` at `pc`, fetched by `cycle`. Reads the
  /// registers, the scoreboard and the PHT; changes nothing.
  CondBranchPlan plan_cond_branch(const DecodedSlot& slot, std::uint64_t pc,
                                  std::uint64_t cycle) const {
    const isa::Instruction& instr = slot.instr;
    CondBranchPlan plan;
    plan.taken = instr.op == isa::Opcode::kBeqz ? regs_[instr.rs1] == 0
                                                : regs_[instr.rs1] != 0;
    const std::uint64_t taken_target = static_cast<std::uint32_t>(instr.imm);
    const std::uint64_t fallthrough = pc + isa::kInstructionSize;
    plan.next_pc = plan.taken ? taken_target : fallthrough;
    const bool predicted_taken = predictor_.pht().predict_taken(pc);
    plan.mispredicted = predicted_taken != plan.taken;
    const std::uint64_t resolve_at =
        reg_ready_[instr.rs1] > cycle ? reg_ready_[instr.rs1] : cycle;
    // A fence hint (planted by the mitigation pass) makes this branch
    // behave as if an lfence followed the bounds check: the front end waits
    // for the condition instead of running a wrong-path episode.
    plan.fenced = config_.honor_fence_hints && slot.fence_after;
    if (plan.mispredicted) {
      if (!plan.fenced) {
        const std::uint64_t delay = resolve_at - cycle;
        plan.spec_budget = delay < config_.max_spec_window
                               ? delay
                               : config_.max_spec_window;
        plan.spec_pc = predicted_taken ? taken_target : fallthrough;
      }
      plan.next_cycle = resolve_at + config_.mispredict_penalty;
    } else {
      plan.next_cycle = plan.fenced ? resolve_at + config_.fence_cost
                                    : cycle + 1;
    }
    return plan;
  }
  void exec_indirect_jump(const isa::Instruction& instr);
  void exec_call(const isa::Instruction& instr);
  void exec_ret(const isa::Instruction& instr);
  void exec_push_pop(const isa::Instruction& instr);
  void exec_misc(const isa::Instruction& instr);

  std::uint64_t ready_at(int r) const { return reg_ready_[r]; }
  void set_ready(int r, std::uint64_t cycle) {
    reg_ready_[r] = cycle;
    // ROB-full stall: the front end cannot run arbitrarily far behind an
    // outstanding result.
    if (cycle > cycle_ + config_.rob_window) {
      cycle_ = cycle - config_.rob_window;
    }
  }
  std::uint64_t max_ready() const;
  __attribute__((always_inline)) std::uint64_t alu_result(
      const isa::Instruction& instr, std::uint64_t a, std::uint64_t b) const;

  /// Counts L1D/L2 access+miss events for a data access.
  void attribute_data_access(const AccessOutcome& outcome);

  // -- wrong-path (transient) execution ------------------------------------
  /// Executes up to `budget` instructions starting at `spec_pc` against a
  /// checkpoint. Cache and PMU speculative counters are mutated; registers
  /// and memory are not.
  void run_wrong_path(std::uint64_t spec_pc, std::uint64_t budget);

  Memory& memory_;
  MemoryHierarchy& hierarchy_;
  BranchPredictor& predictor_;
  Pmu& pmu_;
  CpuConfig config_;
  DecodeCache dcache_;
  std::unique_ptr<BlockCache> bcache_;  ///< non-null iff exec_engine==kBlocks

  std::uint64_t regs_[isa::kNumRegisters] = {};
  std::uint64_t reg_ready_[isa::kNumRegisters] = {};
  std::uint64_t pc_ = 0;
  std::uint64_t cycle_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t spec_episodes_ = 0;
  CpuMitigationStats mstats_;
  bool halted_ = true;
  Fault fault_;
  SyscallHandler syscall_handler_;
};

}  // namespace crs::sim
