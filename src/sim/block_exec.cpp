#include "sim/block_exec.hpp"

#include "sim/block_cache.hpp"
#include "support/error.hpp"

// Dispatch is computed goto (the GNU labels-as-values extension, which GCC
// and Clang — the only compilers the tree builds with — both provide).

// The per-op exits (budget, cycle target) fire at most once per ~dozens of
// ops; telling the compiler keeps the fall-through hot path straight-line.
#define CRS_UNLIKELY(x) __builtin_expect(!!(x), 0)

namespace crs::sim {

using isa::OpClass;
using isa::Opcode;

StopReason BlockExecutor::run(Cpu& cpu, std::uint64_t cycle_target,
                              std::uint64_t max_instructions) {
  BlockCache& cache = *cpu.bcache_;
  const std::uint64_t start_retired = cpu.retired_;
  while (!cpu.halted_) {
    const std::uint64_t done = cpu.retired_ - start_retired;
    if (done >= max_instructions) return StopReason::kInstructionLimit;
    if (cpu.cycle_ >= cycle_target) return StopReason::kCycleLimit;
    TranslatedBlock* block = nullptr;
    if ((cpu.pc_ % isa::kInstructionSize) == 0) {
      block = cache.acquire(cpu.pc_);
    }
    if (block == nullptr || block->empty()) {
      // Unaligned fetch target (ROP pivot), DEP fault, or a serialising /
      // illegal entry instruction: the interpreter step handles all of
      // these with identical semantics.
      cpu.step();
      continue;
    }
    exec_chain(cpu, cache, block, cycle_target, max_instructions - done);
  }
  return cpu.fault_.kind == FaultKind::kNone ? StopReason::kHalted
                                             : StopReason::kFault;
}

// Every handler below mirrors the matching Cpu::exec_* path operation for
// operation; any divergence is a bug the differential oracle will flag.
// pc/cycle live in locals so the compiler can keep them in registers across
// handlers; they are synced back to the Cpu members at every exit.

// Handler epilogue. The whole per-op prologue (limit checks, fetch,
// dispatch) is replicated into every handler so each opcode transition gets
// its own indirect-branch site — the branch predictor then learns
// per-predecessor successor patterns instead of sharing one unpredictable
// dispatch site (the standard direct-threading layout).
#define CRS_NEXT()                             \
  do {                                         \
    ++op;                                      \
    if (CRS_UNLIKELY(op == stop)) goto body_stop; \
    if (CRS_UNLIKELY(cycle >= cycle_target)) goto sync_exit; \
    CRS_FETCH();                               \
    ++n_instr;                                 \
    goto* op->handler;                         \
  } while (0)

// Cpu::set_ready, against the local cycle.
#define CRS_SET_READY(r, c)                                  \
  do {                                                       \
    const std::uint64_t ready_cycle = (c);                   \
    ready[(r)] = ready_cycle;                                \
    if (ready_cycle > cycle + rob_window) {                  \
      cycle = ready_cycle - rob_window;                      \
    }                                                        \
  } while (0)

// Per-instruction counters (retired, kInstructions, kAluOps, kL1iAccesses,
// kL1iMisses — counted by the fetch batch — and the branch events of
// in-chain branch tails) accumulate in locals and land in one batched add
// per counter at every exit: nothing observes the PMU or retired_ mid-chain
// (the same argument that lets kCycles sync at exits), and each flush is
// ordered before anything that could — fault delivery, out-of-line tail
// helpers, returning. Every instruction performs exactly one fetch, so
// n_instr doubles as the kL1iAccesses delta; ALU ops (the bulk) are counted
// by complement — the rarer non-ALU handlers tick n_nonalu before any fault
// can exit them, so kAluOps = n_instr - n_nonalu even when an op faults
// mid-handler.
#define CRS_FLUSH_COUNTS()                                     \
  do {                                                         \
    cpu.retired_ += n_instr;                                   \
    if (n_instr != 0) {                                        \
      pmu.add(Event::kInstructions, n_instr);                  \
      pmu.add(Event::kL1iAccesses, n_instr);                   \
      const std::uint64_t flushed_alu = n_instr - n_nonalu;    \
      if (flushed_alu != 0) pmu.add(Event::kAluOps, flushed_alu); \
    }                                                          \
    if (const std::uint64_t n_imiss = fetches.take_misses();   \
        n_imiss != 0) {                                        \
      pmu.add(Event::kL1iMisses, n_imiss);                     \
    }                                                          \
    if (n_branches != 0) {                                     \
      pmu.add(Event::kBranches, n_branches);                   \
      pmu.add(Event::kTakenBranches, n_taken);                 \
      pmu.add(Event::kBranchMispredicts, n_mispredicts);       \
    }                                                          \
    n_instr = n_nonalu = 0;                                    \
    n_branches = n_taken = n_mispredicts = 0;                  \
    fetches.flush();                                           \
  } while (0)

// Front-end fetch, exactly as Cpu::step (the DEP check happened at
// translation and is guarded by the page version). Nothing but fetches
// touches the L1I inside the chain, so consecutive fetches of one line are
// batched (FetchBatch); every exit and out-of-line tail flushes the batch.
#define CRS_FETCH() cycle += fetches.fetch(pc)

// raise_fault records pc_, so sync before raising; pc still addresses the
// faulting instruction (handlers advance it only after all checks).
#define CRS_FAULT(kind, fault_addr)        \
  do {                                     \
    CRS_FLUSH_COUNTS();                    \
    cpu.pc_ = pc;                          \
    cpu.cycle_ = cycle;                    \
    cpu.raise_fault((kind), (fault_addr)); \
    goto pmu_sync;                         \
  } while (0)

// A store into the block's own code pages may have rewritten ops this
// translation still holds; bail after the store completes so the re-acquire
// sees the bumped page version and retranslates — the interpreter's
// next-fetch-sees-new-bytes behaviour.
#define CRS_SMC_CHECK(write_first_page, write_last_page)               \
  do {                                                                 \
    if ((write_first_page) <= span_last &&                             \
        (write_last_page) >= span_first) {                             \
      cache.note_smc_bailout();                                        \
      goto sync_exit;                                                  \
    }                                                                  \
  } while (0)

#define CRS_ALU_IMM(name, value_expr)           \
  CRS_OP(name) {                                \
    regs[op->rd] = (value_expr);                \
    CRS_SET_READY(op->rd, cycle + op->latency); \
    cycle += 1;                                 \
    pc += isa::kInstructionSize;                \
  }                                             \
  CRS_NEXT();

#define CRS_ALU_R1(name, value_expr)                    \
  CRS_OP(name) {                                        \
    const std::uint64_t a = regs[op->rs1];              \
    std::uint64_t issue = cycle;                        \
    if (ready[op->rs1] > issue) issue = ready[op->rs1]; \
    regs[op->rd] = (value_expr);                        \
    CRS_SET_READY(op->rd, issue + op->latency);         \
    cycle += 1;                                         \
    pc += isa::kInstructionSize;                        \
  }                                                     \
  CRS_NEXT();

#define CRS_ALU_RR(name, value_expr)                    \
  CRS_OP(name) {                                        \
    const std::uint64_t a = regs[op->rs1];              \
    const std::uint64_t b = regs[op->rs2];              \
    std::uint64_t issue = cycle;                        \
    if (ready[op->rs1] > issue) issue = ready[op->rs1]; \
    if (ready[op->rs2] > issue) issue = ready[op->rs2]; \
    regs[op->rd] = (value_expr);                        \
    CRS_SET_READY(op->rd, issue + op->latency);         \
    cycle += 1;                                         \
    pc += isa::kInstructionSize;                        \
  }                                                     \
  CRS_NEXT();

#define CRS_OP(name) op_##name:

void BlockExecutor::exec_chain(Cpu& cpu, BlockCache& cache,
                               TranslatedBlock* block,
                               std::uint64_t cycle_target,
                               std::uint64_t budget) {
  Memory& memory = cpu.memory_;
  MemoryHierarchy& hierarchy = cpu.hierarchy_;
  PatternHistoryTable& pht = cpu.predictor_.pht();
  Pmu& pmu = cpu.pmu_;
  std::uint64_t* const regs = cpu.regs_;
  std::uint64_t* const ready = cpu.reg_ready_;
  const std::uint64_t rob_window = cpu.config_.rob_window;
  const bool slh = cpu.config_.slh;

  std::uint64_t pc = cpu.pc_;
  std::uint64_t cycle = cpu.cycle_;
  std::uint64_t remaining = budget;
  std::uint64_t n_instr = 0, n_nonalu = 0;
  std::uint64_t n_branches = 0, n_taken = 0, n_mispredicts = 0;
  FetchBatch fetches(hierarchy);

  // The running block's body cursor and end. The instruction budget folds
  // into the body-end compare: `stop` is where the body must cease, whether
  // that is the natural end (proceed to the tail) or budget exhaustion (sync
  // out). One pointer compare per op replaces a decrement plus a second
  // check; `remaining` is settled from the op cursor at body_stop / tail
  // time.
  const MicroOp* op = nullptr;
  const MicroOp* end = nullptr;
  const MicroOp* stop = nullptr;
  std::uint64_t span_first = 0;  // the running block's code pages
  std::uint64_t span_last = 0;
  TranslatedBlock* next = block;  // the block being entered

  // Indexed by Opcode value; entries MUST follow the isa::Opcode order.
  // Non-body opcodes can never appear in a translated body.
  static const void* const kDispatch[] = {
      &&op_kNop,     &&op_bad,      // kNop, kHalt
      &&op_kMovImm,  &&op_kMov,     // data movement
      &&op_kAdd,     &&op_kSub,     &&op_kMul,     &&op_kDivu,
      &&op_kRemu,    &&op_kAnd,     &&op_kOr,      &&op_kXor,
      &&op_kShl,     &&op_kShr,     &&op_kSar,     // reg-reg ALU
      &&op_kAddImm,  &&op_kMulImm,  &&op_kAndImm,  &&op_kOrImm,
      &&op_kXorImm,  &&op_kShlImm,  &&op_kShrImm,  // reg-imm ALU
      &&op_kCmpLt,   &&op_kCmpLtu,  &&op_kCmpEq,   &&op_kCmpNe,
      &&op_kLoad,    &&op_kLoadB,   &&op_kStore,   &&op_kStoreB,
      &&op_bad,      &&op_bad,      &&op_bad,      &&op_bad,  // branches/jumps
      &&op_bad,      &&op_bad,      &&op_bad,      // calls, ret
      &&op_kPush,    &&op_kPop,
      &&op_bad,      &&op_bad,      &&op_kRdCycle,  // clflush, mfence
      &&op_bad,                                     // syscall
  };
  static_assert(sizeof(kDispatch) / sizeof(kDispatch[0]) ==
                static_cast<std::size_t>(Opcode::kOpcodeCount));

enter_next:  // `next` becomes the running block; pc/cycle already moved
  // Direct threading: resolve every body op's handler label once per
  // translation (the label addresses are local to this function, so the
  // translator cannot); dispatch then loads the pointer straight off the op
  // instead of indexing the table through the opcode.
  if (!next->dispatch_ready) {
    for (MicroOp& o : next->body) {
      o.handler = kDispatch[static_cast<std::size_t>(o.op)];
    }
    next->dispatch_ready = true;
  }
  block = next;
  op = next->body.data();
  end = op + next->body.size();
  stop = remaining < static_cast<std::uint64_t>(end - op) ? op + remaining
                                                          : end;
  span_first = next->first_page;
  span_last = next->last_page;

  // The block's first op; handlers re-dispatch themselves past this head.
  if (op == stop) goto body_stop;
  if (cycle >= cycle_target) goto sync_exit;
  CRS_FETCH();
  ++n_instr;
  goto* op->handler;

  CRS_OP(kNop) {
    ++n_nonalu;
    cycle += 1;
    pc += isa::kInstructionSize;
  }
  CRS_NEXT();

  CRS_ALU_IMM(kMovImm, static_cast<std::uint64_t>(op->imm))
  CRS_ALU_R1(kMov, a)
  CRS_ALU_RR(kAdd, a + b)
  CRS_ALU_RR(kSub, a - b)
  CRS_ALU_RR(kMul, a * b)
  CRS_ALU_RR(kDivu, b == 0 ? ~0ull : a / b)
  CRS_ALU_RR(kRemu, b == 0 ? a : a % b)
  CRS_ALU_RR(kAnd, a & b)
  CRS_ALU_RR(kOr, a | b)
  CRS_ALU_RR(kXor, a ^ b)
  CRS_ALU_RR(kShl, a << (b & 63))
  CRS_ALU_RR(kShr, a >> (b & 63))
  CRS_ALU_RR(kSar, static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(a) >> (b & 63)))
  CRS_ALU_R1(kAddImm, a + static_cast<std::uint64_t>(op->imm))
  CRS_ALU_R1(kMulImm, a * static_cast<std::uint64_t>(op->imm))
  CRS_ALU_R1(kAndImm, a & static_cast<std::uint64_t>(op->imm))
  CRS_ALU_R1(kOrImm, a | static_cast<std::uint64_t>(op->imm))
  CRS_ALU_R1(kXorImm, a ^ static_cast<std::uint64_t>(op->imm))
  CRS_ALU_R1(kShlImm, a << (static_cast<std::uint64_t>(op->imm) & 63))
  CRS_ALU_R1(kShrImm, a >> (static_cast<std::uint64_t>(op->imm) & 63))
  CRS_ALU_RR(kCmpLt, static_cast<std::int64_t>(a) <
                             static_cast<std::int64_t>(b)
                         ? 1
                         : 0)
  CRS_ALU_RR(kCmpLtu, a < b ? 1 : 0)
  CRS_ALU_RR(kCmpEq, a == b ? 1 : 0)
  CRS_ALU_RR(kCmpNe, a != b ? 1 : 0)

  CRS_OP(kLoad) {
    ++n_nonalu;
    const std::uint64_t ea =
        regs[op->rs1] + static_cast<std::uint64_t>(op->imm);
    if (!memory.check(ea, 8, AccessKind::kRead)) {
      CRS_FAULT(FaultKind::kReadPermission, ea);
    }
    std::uint64_t issue = cycle;
    if (ready[op->rs1] > issue) issue = ready[op->rs1];
    const AccessOutcome outcome = hierarchy.access_data(ea);
    cpu.attribute_data_access(outcome);
    pmu.add(Event::kLoads);
    regs[op->rd] = memory.read_u64(ea);
    std::uint32_t latency = outcome.latency;
    if (slh) {
      latency += 1;
      ++cpu.mstats_.slh_hardened_loads;
    }
    CRS_SET_READY(op->rd, issue + latency);
    std::uint32_t throughput = 1;
    if (!outcome.l1_hit) throughput += outcome.l2_hit ? 2 : 6;
    cycle += throughput;
    pc += isa::kInstructionSize;
  }
  CRS_NEXT();

  CRS_OP(kLoadB) {
    ++n_nonalu;
    const std::uint64_t ea =
        regs[op->rs1] + static_cast<std::uint64_t>(op->imm);
    if (!memory.check(ea, 1, AccessKind::kRead)) {
      CRS_FAULT(FaultKind::kReadPermission, ea);
    }
    std::uint64_t issue = cycle;
    if (ready[op->rs1] > issue) issue = ready[op->rs1];
    const AccessOutcome outcome = hierarchy.access_data(ea);
    cpu.attribute_data_access(outcome);
    pmu.add(Event::kLoads);
    regs[op->rd] = static_cast<std::uint64_t>(memory.read_u8(ea));
    std::uint32_t latency = outcome.latency;
    if (slh) {
      latency += 1;
      ++cpu.mstats_.slh_hardened_loads;
    }
    CRS_SET_READY(op->rd, issue + latency);
    std::uint32_t throughput = 1;
    if (!outcome.l1_hit) throughput += outcome.l2_hit ? 2 : 6;
    cycle += throughput;
    pc += isa::kInstructionSize;
  }
  CRS_NEXT();

  CRS_OP(kStore) {
    ++n_nonalu;
    const std::uint64_t ea =
        regs[op->rs1] + static_cast<std::uint64_t>(op->imm);
    if (!memory.check(ea, 8, AccessKind::kWrite)) {
      CRS_FAULT(FaultKind::kWritePermission, ea);
    }
    const AccessOutcome outcome = hierarchy.access_data(ea);
    cpu.attribute_data_access(outcome);
    pmu.add(Event::kStores);
    memory.write_u64(ea, regs[op->rs2]);
    cycle += 1;
    pc += isa::kInstructionSize;
    CRS_SMC_CHECK(ea / Memory::kPageSize, (ea + 7) / Memory::kPageSize);
  }
  CRS_NEXT();

  CRS_OP(kStoreB) {
    ++n_nonalu;
    const std::uint64_t ea =
        regs[op->rs1] + static_cast<std::uint64_t>(op->imm);
    if (!memory.check(ea, 1, AccessKind::kWrite)) {
      CRS_FAULT(FaultKind::kWritePermission, ea);
    }
    const AccessOutcome outcome = hierarchy.access_data(ea);
    cpu.attribute_data_access(outcome);
    pmu.add(Event::kStores);
    memory.write_u8(ea, static_cast<std::uint8_t>(regs[op->rs2]));
    cycle += 1;
    pc += isa::kInstructionSize;
    CRS_SMC_CHECK(ea / Memory::kPageSize, ea / Memory::kPageSize);
  }
  CRS_NEXT();

  CRS_OP(kPush) {
    ++n_nonalu;
    const std::uint64_t new_sp = regs[isa::kStackPointer] - 8;
    if (!memory.check(new_sp, 8, AccessKind::kWrite)) {
      CRS_FAULT(FaultKind::kWritePermission, new_sp);
    }
    memory.write_u64(new_sp, regs[op->rs1]);
    regs[isa::kStackPointer] = new_sp;
    const AccessOutcome outcome = hierarchy.access_data(new_sp);
    cpu.attribute_data_access(outcome);
    pmu.add(Event::kStores);
    pmu.add(Event::kStackOps);
    cycle += 1;
    pc += isa::kInstructionSize;
    CRS_SMC_CHECK(new_sp / Memory::kPageSize,
                  (new_sp + 7) / Memory::kPageSize);
  }
  CRS_NEXT();

  CRS_OP(kPop) {
    ++n_nonalu;
    const std::uint64_t cur_sp = regs[isa::kStackPointer];
    if (!memory.check(cur_sp, 8, AccessKind::kRead)) {
      CRS_FAULT(FaultKind::kReadPermission, cur_sp);
    }
    const AccessOutcome outcome = hierarchy.access_data(cur_sp);
    cpu.attribute_data_access(outcome);
    pmu.add(Event::kLoads);
    regs[op->rd] = memory.read_u64(cur_sp);
    CRS_SET_READY(op->rd, cycle + outcome.latency);
    regs[isa::kStackPointer] = cur_sp + 8;
    pmu.add(Event::kStackOps);
    cycle += 1;
    pc += isa::kInstructionSize;
  }
  CRS_NEXT();

  CRS_OP(kRdCycle) {
    ++n_nonalu;
    regs[op->rd] = cycle;
    CRS_SET_READY(op->rd, cycle + 1);
    cycle += 1;
    pc += isa::kInstructionSize;
  }
  CRS_NEXT();

op_bad:
  CRS_ENSURE(false, "non-body opcode in translated block");

body_stop:
  // Settle the budget: ops executed this block = cursor - body start.
  remaining -= static_cast<std::uint64_t>(op - block->body.data());
  if (op != end) goto sync_exit;  // budget exhausted mid-body

  if (!block->has_tail) goto sync_exit;
  if (remaining == 0) goto sync_exit;
  if (cycle >= cycle_target) goto sync_exit;
  CRS_FETCH();
  ++n_instr;
  ++n_nonalu;  // control flow retires as a branch event, never an ALU op
  --remaining;
  // Direct jumps, and conditional branches that run no wrong-path episode
  // and honour no fence hint, resolve here by the interpreter's own rule
  // (Cpu::plan_cond_branch), with their branch events batched like the
  // rest; the chain then hops to the successor. Nothing here touches the
  // L1I, so the fetch batch carries across the hop.
  switch (block->tail.cls) {
    case OpClass::kJump:
      cycle += 1;
      pc = static_cast<std::uint32_t>(block->tail.instr.imm);
      break;
    case OpClass::kCondBranch: {
      const CondBranchPlan plan = cpu.plan_cond_branch(block->tail, pc, cycle);
      if (plan.fenced || plan.spec_budget != 0) goto out_of_line;
      ++n_branches;
      n_taken += plan.taken ? 1 : 0;
      n_mispredicts += plan.mispredicted ? 1 : 0;
      cycle = plan.next_cycle;
      pht.update(pc, plan.taken);
      pc = plan.next_pc;
      break;
    }
    default:
      goto out_of_line;
  }
  // While the successor pc resolves to a valid fresh block, keep going
  // without returning; acquire revalidates guards, so coherence is exactly
  // the caller-loop behaviour.
  if (remaining == 0 || cycle >= cycle_target) goto sync_exit;
  if ((pc % isa::kInstructionSize) != 0) goto sync_exit;
  next = cache.acquire(pc);
  if (next == nullptr || next->empty()) goto sync_exit;
  goto enter_next;

out_of_line:
  // Calls, returns, indirect jumps, and branches that speculate or fence
  // run on the interpreter's own helpers, so wrong-path episodes and
  // mitigation semantics are literally shared code; they operate on the
  // members, so sync the locals (and the batched counters) first.
  CRS_FLUSH_COUNTS();
  cpu.pc_ = pc;
  cpu.cycle_ = cycle;
  {
    const std::uint64_t episodes = cpu.spec_episodes_;
    switch (block->tail.cls) {
      case OpClass::kCondBranch:
        cpu.exec_cond_branch(block->tail);
        break;
      case OpClass::kIndirectJump:
        cpu.exec_indirect_jump(block->tail.instr);
        break;
      case OpClass::kCall:
      case OpClass::kIndirectCall:
        cpu.exec_call(block->tail.instr);
        break;
      case OpClass::kRet:
        cpu.exec_ret(block->tail.instr);
        break;
      default:
        break;  // translate_into only stores control-flow tails
    }
    if (cpu.halted_ || remaining == 0 || cpu.cycle_ >= cycle_target) {
      goto pmu_sync;
    }
    pc = cpu.pc_;
    cycle = cpu.cycle_;
    if ((pc % isa::kInstructionSize) != 0) goto pmu_sync;
    next = cache.acquire(pc);
    if (next == nullptr || next->empty()) goto pmu_sync;
    // A wrong-path episode fetched through the L1I; the fetch batch must
    // restart from a full access.
    if (cpu.spec_episodes_ != episodes) fetches.restart();
  }
  goto enter_next;

sync_exit:
  CRS_FLUSH_COUNTS();
  cpu.pc_ = pc;
  cpu.cycle_ = cycle;

pmu_sync:
  // The interpreter syncs kCycles after every step; nothing observes the
  // PMU mid-block and cycle_ is monotonic, so syncing once at every block
  // exit yields the identical counter value.
  {
    const std::uint64_t pmu_cycles = pmu.count(Event::kCycles);
    if (cpu.cycle_ > pmu_cycles) {
      pmu.add(Event::kCycles, cpu.cycle_ - pmu_cycles);
    }
  }
}

#undef CRS_OP
#undef CRS_ALU_IMM
#undef CRS_ALU_R1
#undef CRS_ALU_RR
#undef CRS_SMC_CHECK
#undef CRS_FAULT
#undef CRS_FETCH
#undef CRS_FLUSH_COUNTS
#undef CRS_SET_READY
#undef CRS_NEXT
#undef CRS_UNLIKELY

}  // namespace crs::sim
