// Threaded-code block engine: bit-identity with the interpreter, coherence
// of the translated-block cache against every invalidation source the
// page-version scheme covers (mid-run fence-pass rewrites, snapshot
// restore, sibling-page invalidation of straddling blocks), and budget
// semantics at chunked-run boundaries.
#include <gtest/gtest.h>

#include <tuple>

#include "attack/spectre.hpp"
#include "core/scenario.hpp"
#include "harness.hpp"
#include "mitigate/fence_pass.hpp"
#include "sim/block_cache.hpp"
#include "sim/snapshot.hpp"
#include "workloads/workloads.hpp"

namespace crs {
namespace {

using sim::BlockCache;
using sim::ExecEngine;
using sim::Memory;
using sim::StopReason;
using test::SimHarness;

// Writes one encoded instruction at `addr` (bumps the page version, which is
// fine: these run before the machine starts, or deliberately mid-test).
void put(Memory& mem, std::uint64_t addr, isa::Opcode op, int rd = 0,
         int rs1 = 0, int rs2 = 0, std::int32_t imm = 0) {
  isa::Instruction in;
  in.op = op;
  in.rd = static_cast<std::uint8_t>(rd);
  in.rs1 = static_cast<std::uint8_t>(rs1);
  in.rs2 = static_cast<std::uint8_t>(rs2);
  in.imm = imm;
  mem.write_bytes(addr, isa::encode(in));
}

sim::MachineConfig engine_config(ExecEngine engine) {
  sim::MachineConfig mc;
  mc.cpu.exec_engine = engine;
  return mc;
}

// The block engine is a pure simulator-speed device: retired count, cycle
// count, every PMU counter and the program output must be identical to the
// interpreter — for benign workloads and for a full Spectre attack run
// whose timing side channel is the whole point.
TEST(BlockEngine, BitIdenticalToInterpreter) {
  const auto run_one = [](const sim::Program& prog, ExecEngine engine) {
    sim::Machine machine(engine_config(engine));
    sim::Kernel kernel(machine);
    kernel.register_binary("/bin/p", prog);
    kernel.start_with_strings("/bin/p", {"p"});
    kernel.run(50'000'000);
    return std::tuple{machine.cpu().retired(), machine.cpu().cycle(),
                      machine.pmu().snapshot(), kernel.output_string()};
  };

  workloads::WorkloadOptions opt;
  opt.scale = 500;
  for (const char* name : {"sha", "basicmath"}) {
    const auto benign = workloads::build_workload(name, opt);
    EXPECT_EQ(run_one(benign, ExecEngine::kBlocks),
              run_one(benign, ExecEngine::kInterp))
        << name;
  }

  attack::AttackConfig acfg;
  acfg.embed_secret = "BLOCK-ENGINE-EQS";  // 16 bytes, the default length
  const auto attack_prog = attack::build_attack_binary(acfg);
  EXPECT_EQ(run_one(attack_prog, ExecEngine::kBlocks),
            run_one(attack_prog, ExecEngine::kInterp));

  // Profiled attempts in the offline campaign's shape (ROP-injected,
  // perturbed by the static branchy variant) under every mitigation preset
  // and full hardening: the block engine resolves most branch tails itself
  // and runs wrong-path episodes only through the interpreter's helper, so
  // every window edge — the cycle the profiler stops at — and every
  // window's noiseless counters must match.
  core::ScenarioConfig offline;
  offline.host_scale = 2000;
  offline.rop_injected = true;
  offline.perturb = true;
  offline.perturb_params.loop_count = 16;
  offline.perturb_params.delay = 500;
  offline.perturb_params.style = perturb::MimicStyle::kBranchy;
  std::vector<std::pair<std::string, core::ScenarioConfig>> configs;
  for (const std::string& preset : mitigate::preset_names()) {
    core::ScenarioConfig c = offline;
    c.mitigations = mitigate::preset(preset);
    configs.emplace_back(preset, c);
  }
  core::ScenarioConfig hardened = offline;
  hardened.harden = harden::preset("full");
  configs.emplace_back("harden=full", hardened);
  const auto profiled = [](const core::ScenarioConfig& config,
                           ExecEngine engine) {
    std::vector<sim::PmuSnapshot> windows;
    std::tuple<bool, bool, std::uint64_t, std::uint64_t> run_facts;
    test::with_engine(engine, [&] {
      core::ScenarioSession session(config);
      const core::ScenarioRun run = session.run_attempt(0x0FF1);
      for (const hid::WindowSample& w : run.profile.windows) {
        windows.push_back(w.true_delta);
      }
      run_facts = {run.attack_launched, run.secret_recovered,
                   run.profile.cycles, run.profile.instructions};
    });
    return std::pair{windows, run_facts};
  };
  for (const auto& [name, config] : configs) {
    const auto blocks = profiled(config, ExecEngine::kBlocks);
    const auto interp = profiled(config, ExecEngine::kInterp);
    if (name == "none") {
      EXPECT_TRUE(std::get<0>(interp.second)) << "the injection never ran";
    }
    EXPECT_EQ(blocks.second, interp.second) << name;
    ASSERT_EQ(blocks.first.size(), interp.first.size()) << name;
    for (std::size_t w = 0; w < blocks.first.size(); ++w) {
      EXPECT_EQ(blocks.first[w], interp.first[w]) << name << " window " << w;
    }
  }
}

constexpr const char* kBoundsLoop =
    "_start:\n"
    "  movi r1, 64\n"    // len
    "  movi r2, 0\n"     // idx
    "loop:\n"
    "  cmpltu r3, r2, r1\n"
    "  beqz r3, done\n"  // bounds check: cmp feeds the branch
    "  addi r2, r2, 1\n"
    "  jmp loop\n"
    "done:\n"
    "  movi r1, 0\n"
    "  call exit_\n";

// A fence pass rewriting an already-executing page must kill the warm
// translated blocks — a stale un-hinted block would silently re-open the
// speculation window the pass just closed. The warm-up runs through
// kernel.run (the block engine), not step(), so the loop really is resident
// in the block cache when the rewrite lands.
TEST(BlockEngine, MidRunFencePassRewriteKillsWarmBlocks) {
  sim::MachineConfig mcfg = engine_config(ExecEngine::kBlocks);
  mcfg.cpu.honor_fence_hints = true;
  SimHarness h({}, mcfg);
  h.add_program(kBoundsLoop, "/bin/t");
  h.kernel().start_with_strings("/bin/t", {"t"});

  auto& cpu = h.machine().cpu();
  ASSERT_NE(cpu.block_cache(), nullptr);
  ASSERT_EQ(h.kernel().run(40), StopReason::kInstructionLimit);
  ASSERT_FALSE(cpu.halted());
  ASSERT_GT(cpu.block_cache()->stats().hits, 0u)
      << "warm-up never reached a cached block";
  ASSERT_EQ(cpu.mitigation_stats().fence_stalls, 0u)
      << "no hints may fire before the pass runs";

  // Harden the mapped image in place, mid-run.
  const auto& img = h.kernel().main_image();
  const auto stats =
      mitigate::insert_bounds_fences(h.machine().memory(), img.lo, img.hi);
  ASSERT_GT(stats.fences_planted, 0u);

  ASSERT_EQ(h.kernel().run(1'000'000), StopReason::kHalted);
  EXPECT_GT(cpu.block_cache()->stats().retranslations, 0u)
      << "the rewrite never invalidated a warm block";
  EXPECT_GT(cpu.mitigation_stats().fence_stalls, 0u)
      << "stale pre-pass blocks executed after the rewrite";
}

// Snapshot restore vs the block cache: a restore bumps page versions (never
// rolls them back), so blocks translated from a later program's bytes must
// die, and a restored run must be bit-identical to the original run even
// though the block cache is warm with stale translations.
TEST(BlockEngine, SnapshotRestoreAfterWarmupBitIdenticalToFresh) {
  sim::Machine machine(engine_config(ExecEngine::kBlocks));
  auto& mem = machine.memory();
  const std::uint64_t base = 0x1000;
  mem.set_permissions(base, Memory::kPageSize,
                      static_cast<sim::Perm>(sim::kPermRW | sim::kPermExec));
  put(mem, base + 0x00, isa::Opcode::kMovImm, 1, 0, 0, 11);
  put(mem, base + 0x08, isa::Opcode::kAddImm, 1, 1, 0, 3);
  put(mem, base + 0x10, isa::Opcode::kHalt);

  // Checkpoint with program A in place, then run it cold.
  sim::MachineSnapshot snap = machine.snapshot();
  machine.cpu().reset(base, 0x8000);
  EXPECT_EQ(machine.cpu().run(100), StopReason::kHalted);
  const auto fresh = std::tuple{machine.cpu().reg(1), machine.cpu().retired(),
                                machine.cpu().cycle(),
                                machine.pmu().snapshot()};
  EXPECT_EQ(std::get<0>(fresh), 14u);

  // Overwrite with program B and run: the block cache now holds B's blocks.
  put(mem, base + 0x00, isa::Opcode::kMovImm, 1, 0, 0, 22);
  machine.cpu().reset(base, 0x8000);
  EXPECT_EQ(machine.cpu().run(100), StopReason::kHalted);
  EXPECT_EQ(machine.cpu().reg(1), 25u);

  // Roll back to A and re-run: warm-but-stale blocks must retranslate, and
  // the run must reproduce the fresh run's counters exactly.
  machine.restore(snap);
  machine.cpu().reset(base, 0x8000);
  EXPECT_EQ(machine.cpu().run(100), StopReason::kHalted);
  const auto restored = std::tuple{
      machine.cpu().reg(1), machine.cpu().retired(), machine.cpu().cycle(),
      machine.pmu().snapshot()};
  EXPECT_EQ(restored, fresh) << "stale block of B survived the restore";
  EXPECT_GT(machine.cpu().block_cache()->stats().retranslations, 0u);
}

// A block whose bytes straddle a page boundary guards both pages: bumping
// the *second* page's version — or invalidating it outright, as clflush of
// a line in it would — must force retranslation even though the entry page
// never changed.
TEST(BlockEngine, StraddlingBlockRetranslatesOnSiblingPageInvalidation) {
  Memory mem(4 * Memory::kPageSize);
  mem.set_permissions(0, 2 * Memory::kPageSize,
                      static_cast<sim::Perm>(sim::kPermRW | sim::kPermExec));
  // Two body ops at the end of page 0, tail + more body in page 1.
  const std::uint64_t entry = Memory::kPageSize - 2 * isa::kInstructionSize;
  put(mem, entry + 0x00, isa::Opcode::kMovImm, 1, 0, 0, 5);
  put(mem, entry + 0x08, isa::Opcode::kAddImm, 1, 1, 0, 2);
  put(mem, entry + 0x10, isa::Opcode::kMovImm, 2, 0, 0, 9);  // page 1
  put(mem, entry + 0x18, isa::Opcode::kHalt);

  BlockCache bc(mem, /*mul_latency=*/3, /*div_latency=*/20);
  const sim::TranslatedBlock* block = bc.acquire(entry);
  ASSERT_NE(block, nullptr);
  ASSERT_EQ(block->guard_count, 2u) << "block does not straddle the boundary";
  EXPECT_EQ(block->body.size(), 3u);
  EXPECT_EQ(bc.stats().translations, 1u);

  // Re-acquire while both pages are untouched: a guard-validated hit.
  EXPECT_EQ(bc.acquire(entry), block);
  EXPECT_EQ(bc.stats().hits, 1u);

  // Patch the instruction in the *second* page only.
  put(mem, entry + 0x10, isa::Opcode::kMovImm, 2, 0, 0, 42);
  const sim::TranslatedBlock* again = bc.acquire(entry);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(bc.stats().retranslations, 1u)
      << "sibling-page version bump did not kill the straddler";
  EXPECT_EQ(again->body[2].imm, 42);

  // Explicit invalidation of the second page (the clflush path) must drop
  // the straddler via the incoming-block backrefs; the next acquire is a
  // fresh translation, not a hit.
  bc.invalidate(Memory::kPageSize);
  EXPECT_EQ(bc.stats().invalidations, 1u);
  ASSERT_NE(bc.acquire(entry), nullptr);
  EXPECT_EQ(bc.stats().translations, 2u);
  EXPECT_EQ(bc.stats().hits, 1u);
}

// In-chain hops against block frees: a loop warm enough that its blocks
// chain into each other across two pages through jump and branch tails
// resolved in the chain, then a clflush of the second page's code line
// mid-run, which frees that page's blocks. The next hop into the page must
// translate afresh (under the asan preset, entering a freed block reads
// freed storage), and the run must stay bit-identical to the interpreter.
TEST(BlockEngine, CodeLineFlushMidLoopMatchesInterpreter) {
  constexpr std::uint64_t kPageA = 0x1000;
  constexpr std::uint64_t kPageB = 0x2000;
  const auto setup = [&](sim::Machine& machine) {
    auto& mem = machine.memory();
    mem.set_permissions(kPageA, 2 * Memory::kPageSize, sim::kPermRX);
    put(mem, kPageA + 0x00, isa::Opcode::kMovImm, 1, 0, 0, 200);   // count
    put(mem, kPageA + 0x08, isa::Opcode::kMovImm, 5, 0, 0, 100);   // flush at
    put(mem, kPageA + 0x10, isa::Opcode::kMovImm, 6, 0, 0, kPageB);
    put(mem, kPageA + 0x18, isa::Opcode::kAddImm, 2, 2, 0, 1);     // loop:
    put(mem, kPageA + 0x20, isa::Opcode::kJmp, 0, 0, 0, kPageB);
    put(mem, kPageB + 0x00, isa::Opcode::kAddImm, 1, 1, 0, -1);
    put(mem, kPageB + 0x08, isa::Opcode::kCmpNe, 3, 1, 5);
    put(mem, kPageB + 0x10, isa::Opcode::kBnez, 0, 3, 0, kPageB + 0x20);
    put(mem, kPageB + 0x18, isa::Opcode::kClflush, 0, 6, 0, 0);
    put(mem, kPageB + 0x20, isa::Opcode::kBnez, 0, 1, 0, kPageA + 0x18);
    put(mem, kPageB + 0x28, isa::Opcode::kHalt);
    machine.cpu().reset(kPageA, 0x8000);
  };

  sim::Machine blocks(engine_config(ExecEngine::kBlocks));
  sim::Machine interp(engine_config(ExecEngine::kInterp));
  setup(blocks);
  setup(interp);

  // Warm: about 20 iterations, far from the flush at iteration 100.
  ASSERT_EQ(blocks.cpu().run(100), StopReason::kInstructionLimit);
  const BlockCache& cache = *blocks.cpu().block_cache();
  EXPECT_GT(cache.stats().hits, 20u) << "the loop never chained";
  EXPECT_EQ(cache.stats().invalidations, 0u);

  EXPECT_EQ(blocks.cpu().run(1'000'000), StopReason::kHalted);
  EXPECT_EQ(interp.cpu().run(1'000'000), StopReason::kHalted);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(blocks.cpu().reg(2), 200u);
  EXPECT_EQ(blocks.cpu().retired(), interp.cpu().retired());
  EXPECT_EQ(blocks.cpu().cycle(), interp.cpu().cycle());
  EXPECT_EQ(blocks.pmu().snapshot(), interp.pmu().snapshot());
}

// The block engine credits same-line fetches in one batch, to whichever
// L1I way the last real fetch left most recently used; a wrong-path
// episode fetches other lines in between. Here a ROP-style return (its
// saved address overwritten to the next slot of its own line) runs an
// episode at the RSB's prediction, on another line of a one-set, two-way
// L1I. The fetches after it must stamp the return's line, not the
// episode's: the next fill evicts the older of the two, and the final
// fetch of the return's line hits or misses by that choice.
TEST(BlockEngine, FetchBatchRestartsAfterWrongPathEpisode) {
  const auto run = [](ExecEngine engine) {
    sim::MachineConfig mc = engine_config(engine);
    mc.hierarchy.l1i = sim::CacheConfig{128, 64, 2};
    sim::Machine machine(mc);
    auto& mem = machine.memory();
    mem.set_permissions(0x1000, 2 * Memory::kPageSize, sim::kPermRX);
    mem.set_permissions(0x7000, Memory::kPageSize, sim::kPermRW);
    put(mem, 0x2000, isa::Opcode::kCall, 0, 0, 0, 0x1010);  // RSB: 0x2008
    put(mem, 0x2008, isa::Opcode::kHalt);                   // never retired
    put(mem, 0x1000, isa::Opcode::kHalt);
    put(mem, 0x1010, isa::Opcode::kMovImm, 4, 0, 0, 0x1028);
    put(mem, 0x1018, isa::Opcode::kStore, 0, isa::kStackPointer, 4, 0);
    put(mem, 0x1020, isa::Opcode::kRet);  // returns to 0x1028, same line
    put(mem, 0x1028, isa::Opcode::kNop);
    put(mem, 0x1030, isa::Opcode::kJmp, 0, 0, 0, 0x1040);
    put(mem, 0x1040, isa::Opcode::kJmp, 0, 0, 0, 0x1000);  // fill, then back
    machine.cpu().reset(0x2000, 0x8000);
    EXPECT_EQ(machine.cpu().run(100), StopReason::kHalted);
    EXPECT_EQ(machine.cpu().spec_episodes(), 1u);
    return std::tuple{machine.cpu().retired(), machine.cpu().cycle(),
                      machine.pmu().snapshot()};
  };
  EXPECT_EQ(run(ExecEngine::kBlocks), run(ExecEngine::kInterp));
}

// Instruction budgets land mid-block: running the same program in small
// uneven chunks must stop at exactly the same instruction boundaries as the
// interpreter, with identical architectural and PMU state at every chunk
// edge — the regime the HID profiler's sampling loop lives in.
TEST(BlockEngine, ChunkedRunBudgetBoundariesMatchInterpreter) {
  const auto setup = [](sim::Machine& machine) {
    auto& mem = machine.memory();
    const std::uint64_t base = 0x1000;
    mem.set_permissions(base, Memory::kPageSize, sim::kPermRX);
    put(mem, base + 0x00, isa::Opcode::kMovImm, 1, 0, 0, 200);  // counter
    put(mem, base + 0x08, isa::Opcode::kMovImm, 2, 0, 0, 0);    // acc
    put(mem, base + 0x10, isa::Opcode::kAddImm, 2, 2, 1, 0);    // loop:
    put(mem, base + 0x18, isa::Opcode::kMul, 3, 2, 2, 0);
    put(mem, base + 0x20, isa::Opcode::kAddImm, 1, 1, 0, -1);
    put(mem, base + 0x28, isa::Opcode::kBnez, 0, 1, 0, 0x1010);
    put(mem, base + 0x30, isa::Opcode::kHalt);
    machine.cpu().reset(base, 0x8000);
  };

  sim::Machine blocks(engine_config(ExecEngine::kBlocks));
  sim::Machine interp(engine_config(ExecEngine::kInterp));
  setup(blocks);
  setup(interp);

  // Uneven budgets, several smaller than the loop body's block.
  const std::uint64_t budgets[] = {1, 3, 7, 2, 13, 1, 5, 64, 11, 1000};
  for (std::size_t i = 0; !blocks.cpu().halted(); i = (i + 1) % 10) {
    const auto rb = blocks.cpu().run(budgets[i]);
    const auto ri = interp.cpu().run(budgets[i]);
    ASSERT_EQ(rb, ri) << "chunk " << i;
    ASSERT_EQ(blocks.cpu().pc(), interp.cpu().pc()) << "chunk " << i;
    ASSERT_EQ(blocks.cpu().retired(), interp.cpu().retired()) << "chunk " << i;
    ASSERT_EQ(blocks.cpu().cycle(), interp.cpu().cycle()) << "chunk " << i;
    ASSERT_EQ(blocks.pmu().snapshot(), interp.pmu().snapshot())
        << "chunk " << i;
  }
  EXPECT_TRUE(interp.cpu().halted());
}

}  // namespace
}  // namespace crs
