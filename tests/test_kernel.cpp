#include <gtest/gtest.h>

#include "harness.hpp"
#include "support/error.hpp"

namespace crs {
namespace {

using sim::FaultKind;
using sim::StopReason;
using test::SimHarness;

TEST(Kernel, StartUnknownBinaryThrows) {
  SimHarness h;
  EXPECT_THROW(h.kernel().start_with_strings("/bin/missing", {}), Error);
}

TEST(Kernel, ArgvIsMarshalledOntoTheStack) {
  SimHarness h;
  // exit(argc*100 + first byte of argv[0] + len(argv[1]))
  h.add_program(
      "_start:\n"
      "  muli r4, r1, 100\n"
      "  load r5, [r2]\n"      // argv[0] pointer
      "  loadb r5, [r5]\n"     // first byte
      "  add r4, r4, r5\n"
      "  load r6, [r3+8]\n"    // len(argv[1])
      "  add r1, r4, r6\n"
      "  call exit_\n",
      "/bin/t");
  h.run_program("/bin/t", {"A", "four"});
  EXPECT_EQ(h.kernel().exit_code(), 200 + 'A' + 4);
}

TEST(Kernel, WriteSyscallCapturesOutput) {
  SimHarness h;
  h.add_program(
      "_start:\n"
      "  movi r1, msg\n"
      "  movi r2, 5\n"
      "  call print\n"
      "  movi r1, msg\n"
      "  movi r2, 5\n"
      "  call print\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\n"
      "msg: .ascii \"hello\"\n",
      "/bin/t");
  h.run_program("/bin/t");
  EXPECT_EQ(h.kernel().output_string(), "hellohello");
}

TEST(Kernel, WriteRejectsUnmappedBuffer) {
  SimHarness h;
  h.add_program(
      "_start:\n"
      "  movi r0, 1\n"
      "  movi r1, 1\n"
      "  movi r2, 0x100\n"   // unmapped
      "  movi r3, 8\n"
      "  syscall\n"
      "  mov r1, r0\n"       // expect -1
      "  addi r1, r1, 2\n"   // -> 1
      "  call exit_\n",
      "/bin/t");
  h.run_program("/bin/t");
  EXPECT_EQ(h.kernel().exit_code(), 1);
}

TEST(Kernel, GetRandomFillsBuffer) {
  SimHarness h;
  h.add_program(
      "_start:\n"
      "  movi r1, buf\n"
      "  movi r2, 64\n"
      "  call getrandom\n"
      "  movi r1, buf\n"
      "  movi r2, 64\n"
      "  call print\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\n"
      "buf: .space 64\n",
      "/bin/t");
  h.run_program("/bin/t");
  const auto out = h.kernel().output();
  ASSERT_EQ(out.size(), 64u);
  int nonzero = 0;
  for (auto b : out)
    if (b != 0) ++nonzero;
  EXPECT_GT(nonzero, 32);
}

TEST(Kernel, UnknownSyscallReturnsMinusOne) {
  SimHarness h;
  h.add_program(
      "_start:\n"
      "  movi r0, 99\n"
      "  syscall\n"
      "  addi r1, r0, 2\n"
      "  call exit_\n",
      "/bin/t");
  h.run_program("/bin/t");
  EXPECT_EQ(h.kernel().exit_code(), 1);
}

TEST(Kernel, ExecveSpawnsRegisteredBinaryAndResumesHost) {
  SimHarness h;
  h.add_program(
      "_start:\n"
      "  movi r1, hi\n"
      "  movi r2, 2\n"
      "  call print\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\n"
      "hi: .ascii \"hi\"\n",
      "/bin/child", 0x200000);
  h.add_program(
      "_start:\n"
      "  movi r0, 2\n"          // SYS_EXECVE
      "  movi r1, path\n"
      "  syscall\n"
      "  movi r1, after\n"      // host resumes here
      "  movi r2, 5\n"
      "  call print\n"
      "  movi r1, 7\n"
      "  call exit_\n"
      ".data\n"
      "path: .asciz \"/bin/child\"\n"
      "after: .ascii \"after\"\n",
      "/bin/host");
  EXPECT_EQ(h.run_program("/bin/host"), StopReason::kHalted);
  EXPECT_EQ(h.kernel().output_string(), "hiafter");
  EXPECT_EQ(h.kernel().exit_code(), 7);
  EXPECT_EQ(h.kernel().execve_count(), 1);
}

TEST(Kernel, ExecveOfUnknownPathFails) {
  SimHarness h;
  h.add_program(
      "_start:\n"
      "  movi r0, 2\n"
      "  movi r1, path\n"
      "  syscall\n"
      "  addi r1, r0, 2\n"  // -1 + 2
      "  call exit_\n"
      ".data\n"
      "path: .asciz \"/bin/nope\"\n",
      "/bin/host");
  h.run_program("/bin/host");
  EXPECT_EQ(h.kernel().exit_code(), 1);
  EXPECT_EQ(h.kernel().execve_count(), 0);
}

TEST(Kernel, ExecveTwiceReinitialisesChildData) {
  // The child increments a data counter and prints it; both spawns must
  // print the same value because the image is rewritten per spawn.
  SimHarness h;
  h.add_program(
      "_start:\n"
      "  movi r4, counter\n"
      "  load r5, [r4]\n"
      "  addi r5, r5, 65\n"    // 'A' on a fresh image
      "  store [r4], r5\n"
      "  storeb [r4], r5\n"
      "  mov r1, r4\n"
      "  movi r2, 1\n"
      "  call print\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\n"
      "counter: .word 0\n",
      "/bin/child", 0x200000);
  h.add_program(
      "_start:\n"
      "  movi r0, 2\n"
      "  movi r1, path\n"
      "  syscall\n"
      "  movi r0, 2\n"
      "  movi r1, path\n"
      "  syscall\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\n"
      "path: .asciz \"/bin/child\"\n",
      "/bin/host");
  h.run_program("/bin/host");
  EXPECT_EQ(h.kernel().output_string(), "AA");
  EXPECT_EQ(h.kernel().execve_count(), 2);
}

TEST(Kernel, InInjectedBinaryTracksExecveDepth) {
  SimHarness h;
  h.add_program(
      "_start:\n"
      "spin_child:\n"
      "  addi r4, r4, 1\n"
      "  movi r5, 2000\n"
      "  cmpltu r5, r4, r5\n"
      "  bnez r5, spin_child\n"
      "  movi r1, 0\n"
      "  call exit_\n",
      "/bin/child", 0x200000);
  h.add_program(
      "_start:\n"
      "  movi r0, 2\n"
      "  movi r1, path\n"
      "  syscall\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\n"
      "path: .asciz \"/bin/child\"\n",
      "/bin/host");
  h.kernel().start_with_strings("/bin/host", {});
  EXPECT_FALSE(h.kernel().in_injected_binary());
  // Step until inside the child, observing the flag flip.
  bool saw_injected = false;
  ASSERT_TRUE(h.run_to_halt(1'000'000, [&] {
    if (h.kernel().in_injected_binary()) saw_injected = true;
  }));
  EXPECT_TRUE(saw_injected);
  EXPECT_FALSE(h.kernel().in_injected_binary());
}

TEST(Kernel, ExecveDepthIsBounded) {
  // A binary that execve's itself: the chain must stop at the configured
  // depth instead of recursing forever.
  sim::KernelConfig kcfg;
  kcfg.max_execve_depth = 2;
  SimHarness h(kcfg);
  h.add_program(
      "_start:\n"
      "  movi r0, 2\n"
      "  movi r1, path\n"
      "  syscall\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\npath: .asciz \"/bin/self\"\n",
      "/bin/self");
  EXPECT_EQ(h.run_program("/bin/self", {}, 50'000'000), StopReason::kHalted);
  EXPECT_EQ(h.kernel().execve_count(), 2);
}

TEST(Kernel, ArgvWithManyArguments) {
  SimHarness h;
  // exit(argc + len(argv[4]))
  h.add_program(
      "_start:\n"
      "  load r4, [r3+32]\n"
      "  add r1, r1, r4\n"
      "  call exit_\n",
      "/bin/t");
  h.run_program("/bin/t", {"a", "bb", "ccc", "dddd", "eeeee"});
  EXPECT_EQ(h.kernel().exit_code(), 5 + 5);
}

TEST(Kernel, EmptyArgumentIsMarshalled) {
  SimHarness h;
  h.add_program(
      "_start:\n"
      "  load r1, [r3+8]\n"  // len(argv[1]) == 0
      "  addi r1, r1, 9\n"
      "  call exit_\n",
      "/bin/t");
  h.run_program("/bin/t", {"name", ""});
  EXPECT_EQ(h.kernel().exit_code(), 9);
}

TEST(Kernel, AslrShiftsImageBase) {
  sim::KernelConfig k1;
  k1.aslr = true;
  k1.seed = 1;
  SimHarness h1(k1);
  h1.add_program("_start:\n  movi r1, 9\n  call exit_\n", "/bin/t");
  EXPECT_EQ(h1.run_program("/bin/t"), StopReason::kHalted);
  EXPECT_EQ(h1.kernel().exit_code(), 9);
  const auto d1 = h1.kernel().main_image().base_delta;

  sim::KernelConfig k2 = k1;
  k2.seed = 99;
  SimHarness h2(k2);
  h2.add_program("_start:\n  movi r1, 9\n  call exit_\n", "/bin/t");
  EXPECT_EQ(h2.run_program("/bin/t"), StopReason::kHalted);
  const auto d2 = h2.kernel().main_image().base_delta;

  EXPECT_NE(d1, d2) << "different seeds must randomise differently";
  EXPECT_NE(d1, 0u);
}

TEST(Kernel, AslrRelocatesDataReferences) {
  sim::KernelConfig k;
  k.aslr = true;
  k.seed = 7;
  SimHarness h(k);
  h.add_program(
      "_start:\n"
      "  movi r4, table\n"
      "  load r5, [r4]\n"      // table[0] = address of value (relocated)
      "  load r1, [r5]\n"
      "  call exit_\n"
      ".data\n"
      "value: .word 123\n"
      "table: .word value\n",
      "/bin/t");
  EXPECT_EQ(h.run_program("/bin/t"), StopReason::kHalted);
  EXPECT_EQ(h.kernel().exit_code(), 123);
}

TEST(Kernel, ResolvedSymbolAccountsForAslr) {
  sim::KernelConfig k;
  k.aslr = true;
  k.seed = 5;
  SimHarness h(k);
  const auto& prog = h.add_program(
      "_start:\n  movi r1, 0\n  call exit_\n"
      ".data\nmark: .word 0xbeef\n",
      "/bin/t");
  h.run_program("/bin/t");
  const auto addr = h.kernel().resolved_symbol("/bin/t", "mark");
  EXPECT_EQ(addr, prog.symbol("mark") + h.kernel().main_image().base_delta);
  EXPECT_EQ(h.machine().memory().read_u64(addr), 0xbeefu);
}

TEST(Kernel, CanaryCheckPassesWhenUntouched) {
  SimHarness h;
  h.add_program(
      "_start:\n"
      "  movi r4, __canary\n"
      "  load r4, [r4]\n"
      "  call canary_check\n"
      "  movi r1, 3\n"
      "  call exit_\n",
      "/bin/t");
  EXPECT_EQ(h.run_program("/bin/t"), StopReason::kHalted);
  EXPECT_EQ(h.kernel().exit_code(), 3);
}

TEST(Kernel, CanaryMismatchAborts) {
  SimHarness h;
  h.add_program(
      "_start:\n"
      "  movi r4, __canary\n"
      "  load r4, [r4]\n"
      "  addi r4, r4, 1\n"   // corrupt the in-frame copy
      "  call canary_check\n"
      "  movi r1, 3\n"
      "  call exit_\n",
      "/bin/t");
  EXPECT_EQ(h.run_program("/bin/t"), StopReason::kFault);
  EXPECT_EQ(h.machine().cpu().fault().kind, FaultKind::kStackCanary);
}

TEST(Kernel, CanaryIsRandomPerProcess) {
  sim::KernelConfig kc1;
  sim::KernelConfig kc2;
  kc2.seed = 1234;
  SimHarness h1(kc1), h2(kc2);
  h1.add_program("_start:\n  movi r1, 0\n  call exit_\n", "/bin/t");
  h2.add_program("_start:\n  movi r1, 0\n  call exit_\n", "/bin/t");
  h1.run_program("/bin/t");
  h2.run_program("/bin/t");
  const auto c1 = h1.machine().memory().read_u64(
      h1.kernel().resolved_symbol("/bin/t", "__canary"));
  const auto c2 = h2.machine().memory().read_u64(
      h2.kernel().resolved_symbol("/bin/t", "__canary"));
  EXPECT_NE(c1, 0u);
  EXPECT_NE(c1, c2);
}

// The seed-dependence rule behind ScenarioSession::run_attempts: a run
// depends on its kernel seed after an ASLR draw, a SYS_GETRANDOM, or a read
// of a canary word the loader planted. Planting alone does not count.
TEST(Kernel, PlantedCanaryCountsOnlyWhenRead) {
  SimHarness h;
  h.add_program("_start:\n  movi r1, 3\n  call exit_\n", "/bin/t");
  h.kernel().reset_for_attempt(5);
  EXPECT_EQ(h.run_program("/bin/t"), StopReason::kHalted);
  EXPECT_EQ(h.kernel().harden_stats().canaries_planted, 1u);
  EXPECT_FALSE(h.kernel().seed_dependent());

  SimHarness r;
  r.add_program(
      "_start:\n"
      "  movi r1, __canary\n"
      "  load r4, [r1]\n"
      "  movi r1, 0\n"
      "  call exit_\n",
      "/bin/t");
  r.kernel().reset_for_attempt(5);
  EXPECT_EQ(r.run_program("/bin/t"), StopReason::kHalted);
  EXPECT_TRUE(r.kernel().seed_dependent());
  r.kernel().reset_for_attempt(6);  // clears the flag and the watch
  EXPECT_FALSE(r.kernel().seed_dependent());
}

TEST(Kernel, KernelSideCopyOfTheCanaryCounts) {
  SimHarness h;
  h.add_program(
      "_start:\n"
      "  movi r1, __canary\n"
      "  movi r2, 8\n"
      "  call print\n"
      "  movi r1, 0\n"
      "  call exit_\n",
      "/bin/t");
  EXPECT_EQ(h.run_program("/bin/t"), StopReason::kHalted);
  EXPECT_EQ(h.kernel().output().size(), 8u);
  EXPECT_TRUE(h.kernel().seed_dependent());
}

TEST(Kernel, GetRandomAndAslrDrawsCount) {
  SimHarness g;
  g.add_program(
      "_start:\n"
      "  movi r1, buf\n"
      "  movi r2, 4\n"
      "  call getrandom\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\n"
      "buf: .space 8\n",
      "/bin/t");
  EXPECT_EQ(g.run_program("/bin/t"), StopReason::kHalted);
  EXPECT_TRUE(g.kernel().seed_dependent());

  sim::KernelConfig kcfg;
  kcfg.aslr_stack = true;
  SimHarness a(kcfg);
  a.add_program("_start:\n  movi r1, 0\n  call exit_\n", "/bin/t");
  EXPECT_EQ(a.run_program("/bin/t"), StopReason::kHalted);
  EXPECT_TRUE(a.kernel().seed_dependent());
}

TEST(Kernel, StackIsNotExecutable) {
  SimHarness h;
  h.add_program(
      "_start:\n"
      "  mov r4, sp\n"
      "  addi r4, r4, -128\n"
      "  jmpr r4\n",
      "/bin/t");
  EXPECT_EQ(h.run_program("/bin/t"), StopReason::kFault);
  EXPECT_EQ(h.machine().cpu().fault().kind, FaultKind::kFetchPermission);
}

}  // namespace
}  // namespace crs
