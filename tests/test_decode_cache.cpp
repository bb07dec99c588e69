// Decode-cache coherence: stores to executable pages, clflush of mapped
// code lines, and execve-style overlays must all force re-decode, and the
// cache must never change architectural or PMU-visible behaviour.
#include <gtest/gtest.h>

#include <tuple>

#include "attack/spectre.hpp"
#include "harness.hpp"
#include "sim/decode_cache.hpp"
#include "sim/snapshot.hpp"
#include "workloads/workloads.hpp"

namespace crs {
namespace {

using sim::DecodeCache;
using sim::Memory;
using sim::StopReason;
using test::SimHarness;

// Writes one encoded instruction at `addr` (bumps the page version, which is
// fine: these run before the machine starts).
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

TEST(MemoryVersions, BumpOnEveryWriteKind) {
  Memory m(4 * Memory::kPageSize);
  EXPECT_EQ(m.page_version(0), 1u);  // versions start at 1

  m.set_permissions(0, Memory::kPageSize, sim::kPermRW);
  const auto after_perms = m.page_version(0);
  EXPECT_GT(after_perms, 1u);

  m.write_u8(5, 0xAA);
  EXPECT_GT(m.page_version(0), after_perms);

  const auto v1 = m.page_version(1);
  m.set_permissions(Memory::kPageSize, Memory::kPageSize, sim::kPermRW);
  m.write_u64(2 * Memory::kPageSize - 4, 0x1122334455667788ull);  // straddles
  EXPECT_GT(m.page_version(1), v1);
  EXPECT_GT(m.page_version(2), 1u);

  EXPECT_EQ(m.page_version(99), 0u);  // out of range, never matches a page
}

TEST(DecodeCache, NonExecutablePageReturnsNull) {
  Memory m(2 * Memory::kPageSize);
  m.set_permissions(0, Memory::kPageSize, sim::kPermRW);
  DecodeCache dc(m);
  EXPECT_EQ(dc.lookup(0), nullptr);
  EXPECT_EQ(dc.lookup(64 * Memory::kPageSize), nullptr);  // out of range
  dc.invalidate(64 * Memory::kPageSize);  // no-op, page never decoded
  EXPECT_EQ(dc.stats().explicit_invalidations, 0u);
}

TEST(DecodeCache, RepeatLookupsHitWithoutRedecoding) {
  Memory m(2 * Memory::kPageSize);
  m.set_permissions(0, Memory::kPageSize, sim::kPermRX);
  put(m, 0, isa::Opcode::kAddImm, 1, 1, 0, 7);
  DecodeCache dc(m);
  const auto* slot = dc.lookup(0);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(slot->state, sim::DecodedSlot::kValid);
  EXPECT_EQ(slot->instr.imm, 7);
  EXPECT_EQ(dc.stats().slot_decodes, 1u);
  dc.lookup(0);
  dc.lookup(0);
  EXPECT_EQ(dc.stats().slot_decodes, 1u);
  EXPECT_EQ(dc.stats().hits, 2u);
  EXPECT_EQ(dc.stats().page_refreshes, 1u);
}

// clflush of a line in the (mapped, executing) code page drops the page's
// decoded state: every post-flush fetch re-decodes.
TEST(DecodeCache, ClflushOfCodePageForcesRedecode) {
  // Pin the interpreter: the stat expectations below count per-step decode
  // cache traffic, which the block engine intentionally bypasses.
  sim::MachineConfig mc;
  mc.cpu.exec_engine = sim::ExecEngine::kInterp;
  sim::Machine machine(mc);
  auto& mem = machine.memory();
  const std::uint64_t base = 0x1000;
  mem.set_permissions(base, Memory::kPageSize, sim::kPermRX);
  put(mem, base + 0x00, isa::Opcode::kMovImm, 4, 0, 0, 0x1000);  // r4 = base
  put(mem, base + 0x08, isa::Opcode::kMovImm, 6, 0, 0, 2);       // r6 = 2
  put(mem, base + 0x10, isa::Opcode::kAddImm, 6, 6, 0, -1);      // loop:
  put(mem, base + 0x18, isa::Opcode::kClflush, 0, 4, 0, 0);
  put(mem, base + 0x20, isa::Opcode::kBnez, 0, 6, 0, 0x1010);
  put(mem, base + 0x28, isa::Opcode::kHalt);

  machine.cpu().reset(base, 0x8000);
  EXPECT_EQ(machine.cpu().run(100), StopReason::kHalted);

  const auto& stats = machine.cpu().decode_cache().stats();
  EXPECT_EQ(stats.explicit_invalidations, 2u);  // one per clflush retired
  // Initial fill plus a refresh after each clflush.
  EXPECT_GE(stats.page_refreshes, 3u);
  // 4 pre-loop/loop slots + re-decodes of the loop body and the tail after
  // each of the two flushes.
  EXPECT_GE(stats.slot_decodes, 9u);
}

// Self-modifying code: a store into the executing page must invalidate the
// pre-decoded slot, otherwise the patched instruction's old decode runs.
TEST(DecodeCache, StoreToExecPageForcesRedecode) {
  for (const bool cached : {true, false}) {
    sim::MachineConfig mc;
    mc.cpu.decode_cache = cached;
    sim::Machine machine(mc);
    auto& mem = machine.memory();
    const std::uint64_t base = 0x1000;
    mem.set_permissions(base, Memory::kPageSize,
                        static_cast<sim::Perm>(sim::kPermRW | sim::kPermExec));

    // The replacement instruction `movi r1, 77`, materialised in r3 by
    // halves (movi immediates are 32-bit).
    isa::Instruction repl;
    repl.op = isa::Opcode::kMovImm;
    repl.rd = 1;
    repl.imm = 77;
    const auto bytes = isa::encode(repl);
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      word |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    }
    const auto lo = static_cast<std::int32_t>(word & 0xFFFFFFFFull);
    const auto hi = static_cast<std::int32_t>(word >> 32);

    put(mem, base + 0x00, isa::Opcode::kMovImm, 4, 0, 0, 0x1030);  // &target
    put(mem, base + 0x08, isa::Opcode::kMovImm, 3, 0, 0, hi);
    put(mem, base + 0x10, isa::Opcode::kShlImm, 3, 3, 0, 32);
    put(mem, base + 0x18, isa::Opcode::kMovImm, 5, 0, 0, lo);
    put(mem, base + 0x20, isa::Opcode::kOr, 3, 3, 5, 0);
    put(mem, base + 0x28, isa::Opcode::kStore, 0, 4, 3, 0);  // patch target
    put(mem, base + 0x30, isa::Opcode::kMovImm, 1, 0, 0, 11);  // target:
    put(mem, base + 0x38, isa::Opcode::kHalt);

    machine.cpu().reset(base, 0x8000);
    EXPECT_EQ(machine.cpu().run(100), StopReason::kHalted);
    // Stale decode would leave r1 == 11.
    EXPECT_EQ(machine.cpu().reg(1), 77u) << "cached=" << cached;
  }
}

// Loading a second binary over the first (the kernel rewrites the segments
// in place, as execve does) must not serve the old program's decodes.
TEST(DecodeCache, ExecveOverlayForcesRedecode) {
  SimHarness h;
  h.add_program(
      "_start:\n"
      "  movi r1, 31\n"
      "  call exit_\n",
      "/bin/a");
  h.add_program(
      "_start:\n"
      "  movi r1, 62\n"
      "  call exit_\n",
      "/bin/b");
  EXPECT_EQ(h.run_program("/bin/a"), StopReason::kHalted);
  EXPECT_EQ(h.kernel().exit_code(), 31);
  // Same machine, same load addresses: only the page-version bump separates
  // /bin/b's bytes from /bin/a's stale decodes.
  EXPECT_EQ(h.run_program("/bin/b"), StopReason::kHalted);
  EXPECT_EQ(h.kernel().exit_code(), 62);
}

// The decode cache is purely a simulator-speed device: retired instruction
// count, cycle count, and every PMU counter must be identical with it on and
// off — for a benign workload and for a full Spectre attack run.
TEST(DecodeCache, OnOffBehaviourallyIdentical) {
  const auto run_one = [](const sim::Program& prog, bool cached) {
    sim::MachineConfig mc;
    mc.cpu.decode_cache = cached;
    sim::Machine machine(mc);
    sim::Kernel kernel(machine);
    kernel.register_binary("/bin/p", prog);
    kernel.start_with_strings("/bin/p", {"p"});
    kernel.run(50'000'000);
    return std::tuple{machine.cpu().retired(), machine.cpu().cycle(),
                      machine.pmu().snapshot(), kernel.output_string()};
  };

  workloads::WorkloadOptions opt;
  opt.scale = 500;
  const auto benign = workloads::build_workload("sha", opt);
  EXPECT_EQ(run_one(benign, true), run_one(benign, false));

  attack::AttackConfig acfg;
  acfg.embed_secret = "DECODE-CACHE-EQS";  // 16 bytes, the default length
  const auto attack_prog = attack::build_attack_binary(acfg);
  const auto with = run_one(attack_prog, true);
  EXPECT_EQ(with, run_one(attack_prog, false));
}

// Snapshot restore vs the decode cache: restoring a page that a later run
// rewrote (SMC-style) must bump the page version — never roll it back — so
// slots decoded from the later bytes can never be served against the
// restored bytes.
TEST(DecodeCache, SnapshotRestoreBumpsVersionsSoStaleSlotsDie) {
  sim::Machine machine;  // decode cache on by default
  auto& mem = machine.memory();
  const std::uint64_t base = 0x1000;
  mem.set_permissions(base, Memory::kPageSize,
                      static_cast<sim::Perm>(sim::kPermRW | sim::kPermExec));
  put(mem, base + 0x00, isa::Opcode::kMovImm, 1, 0, 0, 11);
  put(mem, base + 0x08, isa::Opcode::kHalt);

  // Checkpoint with program A in place, then execute it (populating the
  // decode cache with A's slots at the current page version).
  sim::MachineSnapshot snap = machine.snapshot();
  EXPECT_EQ(snap.baseline()->image()->stored_page_count(), 1u);
  machine.cpu().reset(base, 0x8000);
  EXPECT_EQ(machine.cpu().run(100), StopReason::kHalted);
  EXPECT_EQ(machine.cpu().reg(1), 11u);

  // Overwrite with program B and run: the cache now holds B's decodes.
  put(mem, base + 0x00, isa::Opcode::kMovImm, 1, 0, 0, 22);
  const std::uint32_t version_b = mem.page_version(base / Memory::kPageSize);
  machine.cpu().reset(base, 0x8000);
  EXPECT_EQ(machine.cpu().run(100), StopReason::kHalted);
  EXPECT_EQ(machine.cpu().reg(1), 22u);

  // Roll back to A. The restored page's version must be strictly greater
  // than anything the cache has seen, forcing a re-decode of A's bytes.
  machine.restore(snap);
  EXPECT_EQ(snap.last_restored_pages(), 1u);
  EXPECT_GT(mem.page_version(base / Memory::kPageSize), version_b);
  machine.cpu().reset(base, 0x8000);
  EXPECT_EQ(machine.cpu().run(100), StopReason::kHalted);
  EXPECT_EQ(machine.cpu().reg(1), 11u) << "stale decode of B survived restore";
}

}  // namespace
}  // namespace crs
