// Threaded-code block execution engine.
//
// `BlockExecutor::run` is the block-engine twin of the interpreter's
// `Cpu::run_until_cycle` loop: it acquires translated superblocks from the
// per-CPU `BlockCache` and executes their straight-line bodies with a
// computed-goto dispatch table (dense switch where the compiler lacks the
// extension), falling back to `Cpu::step()` for anything a block cannot
// hold — unaligned fetch targets (ROP pivots), DEP faults, serialising
// instructions (halt/mfence/clflush/syscall), and illegal bytes.
//
// The contract is bit-identity with the interpreter: every handler mirrors
// the corresponding `Cpu::exec_*` path operation for operation (scoreboard
// issue times, ROB-window stalls, PMU attribution, fault ordering, SLH
// latency, cycle accounting). A direct-jump tail, and a conditional-branch
// tail that runs no wrong-path episode and honours no fence hint, resolve
// inside the chain by the interpreter's own rule (Cpu::plan_cond_branch);
// every other tail calls the interpreter's exec_* helpers, so speculation
// episodes and mitigation semantics are the same code. In-block stores into
// the block's own code pages bail out immediately so self-modifying code
// sees its new bytes exactly as the per-step engine would. The differential
// fuzz oracle (src/fuzz) crosses the two engines on every corpus program to
// enforce this.
#pragma once

#include <cstdint>

#include "sim/cpu.hpp"

namespace crs::sim {

class BlockCache;
struct TranslatedBlock;

class BlockExecutor {
 public:
  /// Runs `cpu` until halt/fault, `cycle_target`, or `max_instructions`
  /// retired — same contract as the interpreter's run_until_cycle loop.
  /// Requires cpu.block_cache() != nullptr.
  static StopReason run(Cpu& cpu, std::uint64_t cycle_target,
                        std::uint64_t max_instructions);

 private:
  /// Executes `block` (body + optional control-flow tail) and then chains
  /// straight into successor blocks while their guards validate, keeping
  /// pc/cycle and the batched counters in registers across block
  /// boundaries. Returns — with cpu state fully synced — on faults,
  /// budget/cycle limits, a self-modifying store into the running block's
  /// own pages, or any pc the cache cannot serve (unaligned, DEP-denied,
  /// serialising/illegal entry), which the caller feeds to Cpu::step().
  static void exec_chain(Cpu& cpu, BlockCache& cache, TranslatedBlock* block,
                         std::uint64_t cycle_target, std::uint64_t budget);
};

}  // namespace crs::sim
