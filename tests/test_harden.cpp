// Tier-8: the host hardening layer and the speculative attacks against it.
//
// Pins the subsystem's four contracts:
//  - determinism: randomized image/stack bases are a pure function of the
//    kernel seed (same seed ⇒ same layout, any construction path),
//  - the defenses work architecturally: a canary smash aborts before the
//    ROP chain runs, a heap overflow tears a redzone and faults on free,
//  - the speculative bypass works: the probe binary leaks base delta,
//    canary value and stack pointer that match the kernel's ground truth,
//  - the scenario layer composes: hardened sessions restore ≡ fresh, and
//    the leak-parameterized injection still lands under full hardening.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "attack/spectre11.hpp"
#include "core/harden_matrix.hpp"
#include "core/overhead.hpp"
#include "core/scenario.hpp"
#include "harden/config.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "harden/probe.hpp"
#include "hid/detector.hpp"
#include "harness.hpp"
#include "sim/snapshot.hpp"
#include "workloads/workloads.hpp"

namespace crs {
namespace {

using test::SimHarness;

TEST(HardenConfig, ApplyLowersOntoKernelConfig) {
  sim::KernelConfig kcfg;
  harden::preset("full").apply(kcfg);
  EXPECT_TRUE(kcfg.aslr);
  EXPECT_TRUE(kcfg.aslr_stack);
  EXPECT_TRUE(kcfg.heap_guard);

  sim::KernelConfig plain;
  harden::preset("canary").apply(plain);
  EXPECT_FALSE(plain.aslr);
  EXPECT_FALSE(plain.aslr_stack);
  EXPECT_FALSE(plain.heap_guard);
}

sim::KernelConfig hardened_kcfg(std::uint64_t seed) {
  sim::KernelConfig kcfg;
  kcfg.seed = seed;
  harden::preset("full").apply(kcfg);
  return kcfg;
}

TEST(HardenKernel, BaseRandomizationDeterministicPerSeed) {
  const std::string src = "_start:\n  movi r1, 0\n  call exit_\n";
  std::uint64_t delta[3];
  std::uint64_t sp[3];
  const std::uint64_t seeds[3] = {7, 7, 8};
  for (int i = 0; i < 3; ++i) {
    SimHarness h(hardened_kcfg(seeds[i]));
    h.add_program(src, "/bin/t");
    h.kernel().start_with_strings("/bin/t", {"arg"});
    delta[i] = h.kernel().main_image().base_delta;
    sp[i] = h.machine().cpu().sp();
    EXPECT_EQ(h.kernel().harden_stats().stacks_randomized, 1u);
    EXPECT_EQ(h.kernel().harden_stats().images_randomized, 1u);
  }
  EXPECT_EQ(delta[0], delta[1]);
  EXPECT_EQ(sp[0], sp[1]);
  // Distinct seeds shift the layout (delta and stack draws together make a
  // same-layout collision astronomically unlikely for these two seeds).
  EXPECT_TRUE(delta[0] != delta[2] || sp[0] != sp[2]);
}

TEST(HardenKernel, CanarySmashAbortsBeforeHijack) {
  workloads::WorkloadOptions wopt;
  wopt.scale = 5;
  wopt.canary = true;
  wopt.secret = "S";
  SimHarness h;
  h.kernel().register_binary("/host",
                             workloads::build_workload("bitcount", wopt));
  // A 300-byte argv[1] smashes through the frame, the canary slot and the
  // return slot; the epilogue's canary check must abort the process.
  const std::string smash(300, 'A');
  h.kernel().start_with_strings("/host", {"/host", smash});
  EXPECT_EQ(h.kernel().run(10'000'000), sim::StopReason::kFault);
  EXPECT_EQ(h.machine().cpu().fault().kind, sim::FaultKind::kStackCanary);
  EXPECT_EQ(h.kernel().harden_stats().canary_aborts, 1u);

  // The summary masks by config: canary events only show when the canary
  // layer is on.
  harden::HardenConfig on;
  on.canary = true;
  EXPECT_GE(harden::summarize(h.kernel(), on).canary_aborts, 1u);
  EXPECT_EQ(harden::summarize(h.kernel(), {}).total_events(), 0u);
}

// r4 = chunk address after this prologue; chunk size 32.
const char* kHeapProgPrologue =
    "_start:\n"
    "  movi r0, 5\n"   // SYS_HEAP_ALLOC
    "  movi r1, 32\n"
    "  syscall\n"
    "  mov r4, r0\n";

TEST(HardenKernel, GuardedHeapAllocWriteFreeOk) {
  sim::KernelConfig kcfg;
  kcfg.heap_guard = true;
  SimHarness h(kcfg);
  h.add_program(std::string(kHeapProgPrologue) +
                    "  movi r5, 42\n"
                    "  store [r4], r5\n"   // in-bounds write
                    "  movi r0, 6\n"       // SYS_HEAP_FREE
                    "  mov r1, r4\n"
                    "  syscall\n"
                    "  mov r1, r0\n"       // exit code = free result (0)
                    "  call exit_\n",
                "/bin/heap_ok");
  EXPECT_EQ(h.run_program("/bin/heap_ok"), sim::StopReason::kHalted);
  EXPECT_EQ(h.kernel().exit_code(), 0);
  EXPECT_EQ(h.kernel().harden_stats().heap_allocs, 1u);
  EXPECT_EQ(h.kernel().harden_stats().heap_frees, 1u);
  EXPECT_EQ(h.kernel().harden_stats().redzone_violations, 0u);
}

TEST(HardenKernel, GuardedHeapCatchesOverflowOnFree) {
  sim::KernelConfig kcfg;
  kcfg.heap_guard = true;
  SimHarness h(kcfg);
  h.add_program(std::string(kHeapProgPrologue) +
                    "  movi r5, 42\n"
                    "  mov r6, r4\n"
                    "  addi r6, r6, 32\n"
                    "  store [r6], r5\n"   // 8 bytes past the chunk
                    "  movi r0, 6\n"
                    "  mov r1, r4\n"
                    "  syscall\n"
                    "  movi r1, 0\n"
                    "  call exit_\n",
                "/bin/heap_smash");
  EXPECT_EQ(h.run_program("/bin/heap_smash"), sim::StopReason::kFault);
  EXPECT_EQ(h.machine().cpu().fault().kind, sim::FaultKind::kHeapRedzone);
  EXPECT_EQ(h.kernel().harden_stats().redzone_violations, 1u);
}

TEST(HardenKernel, UnguardedHeapToleratesOverflow) {
  // Same smash without the guard: the classic unsafe heap frees happily.
  SimHarness h;
  h.add_program(std::string(kHeapProgPrologue) +
                    "  movi r5, 42\n"
                    "  mov r6, r4\n"
                    "  addi r6, r6, 32\n"
                    "  store [r6], r5\n"
                    "  movi r0, 6\n"
                    "  mov r1, r4\n"
                    "  syscall\n"
                    "  mov r1, r0\n"
                    "  call exit_\n",
                "/bin/heap_smash");
  EXPECT_EQ(h.run_program("/bin/heap_smash"), sim::StopReason::kHalted);
  EXPECT_EQ(h.kernel().exit_code(), 0);
}

TEST(HardenKernel, HeapFreeListReusesChunks) {
  sim::KernelConfig kcfg;
  kcfg.heap_guard = true;
  SimHarness h(kcfg);
  // alloc a; free a; alloc b (same size) — exit code 0 iff b == a.
  h.add_program(std::string(kHeapProgPrologue) +
                    "  movi r0, 6\n"
                    "  mov r1, r4\n"
                    "  syscall\n"
                    "  movi r0, 5\n"
                    "  movi r1, 32\n"
                    "  syscall\n"
                    "  sub r1, r0, r4\n"  // 0 when reused
                    "  call exit_\n",
                "/bin/heap_reuse");
  EXPECT_EQ(h.run_program("/bin/heap_reuse"), sim::StopReason::kHalted);
  EXPECT_EQ(h.kernel().exit_code(), 0);
}

TEST(HardenKernel, HeapDoubleFreeRejected) {
  sim::KernelConfig kcfg;
  kcfg.heap_guard = true;
  SimHarness h(kcfg);
  h.add_program(std::string(kHeapProgPrologue) +
                    "  movi r0, 6\n"
                    "  mov r1, r4\n"
                    "  syscall\n"
                    "  movi r0, 6\n"
                    "  mov r1, r4\n"
                    "  syscall\n"        // double free: r0 = -1
                    "  movi r1, 0\n"
                    "  sub r1, r1, r0\n" // exit code 1 on the expected -1
                    "  call exit_\n",
                "/bin/heap_df");
  EXPECT_EQ(h.run_program("/bin/heap_df"), sim::StopReason::kHalted);
  EXPECT_EQ(h.kernel().exit_code(), 1);
}

TEST(HardenProbe, LeaksBaseCanaryAndStackGroundTruth) {
  workloads::WorkloadOptions wopt;
  wopt.scale = 5;
  wopt.canary = true;
  wopt.secret = "GROUND-TRUTH";
  const sim::Program victim = workloads::build_workload("basicmath", wopt);

  const sim::KernelConfig kcfg = hardened_kcfg(0xBA5E);
  const std::vector<std::string> args = {"/host", "X"};

  // Ground truth: a fresh kernel with the same seed, started normally.
  sim::Machine truth_machine;
  sim::Kernel truth(truth_machine, kcfg);
  truth.register_binary("/host", victim);
  truth.start_with_strings("/host", args);
  const std::uint64_t true_delta = truth.main_image().base_delta;
  const std::uint64_t true_sp = truth_machine.cpu().sp();
  const std::uint64_t true_canary = truth_machine.memory().read_u64(
      truth.resolved_symbol("/host", "__canary"));

  // The probe pass: same seed, hijacked entry.
  sim::Machine machine;
  sim::Kernel kernel(machine, kcfg);
  kernel.register_binary("/host", victim);
  const harden::ProbeConfig pcfg =
      harden::probe_config_for(victim, kcfg, /*leak_canary=*/true);
  kernel.register_binary("/probe", harden::build_probe_binary(pcfg));
  std::vector<std::vector<std::uint8_t>> raw;
  for (const auto& a : args) raw.emplace_back(a.begin(), a.end());
  kernel.start_probe("/host", "/probe", raw);
  ASSERT_EQ(kernel.run(50'000'000), sim::StopReason::kHalted);

  const harden::ProbeLeak leak = harden::parse_probe_output(kernel.output());
  EXPECT_TRUE(leak.found_base);
  EXPECT_EQ(leak.base_delta, true_delta);
  EXPECT_EQ(leak.canary, true_canary);
  EXPECT_EQ(leak.stack_pointer, true_sp);
  // The probed layout IS the ground-truth layout (same seed, same draws).
  EXPECT_EQ(kernel.main_image().base_delta, true_delta);
}

TEST(HardenAttack, Spectre11LeaksUnderFullHardening) {
  // The speculative store overflow never commits a write, so canary,
  // redzones and ASLR (the attack is position-independent about its own
  // labels) are all bypassed: the full preset leaks the whole secret.
  attack::Spectre11Config acfg;
  acfg.embed_secret = "SSO-SECRET!!";
  acfg.secret_length = 12;
  SimHarness h(hardened_kcfg(0x5511));
  h.kernel().register_binary("/attack",
                             attack::build_spectre11_binary(acfg));
  EXPECT_EQ(h.run_program("/attack", {"/attack"}, 200'000'000),
            sim::StopReason::kHalted);
  const std::string got(h.kernel().output().begin(),
                        h.kernel().output().end());
  EXPECT_EQ(got, "SSO-SECRET!!");
  // Architecturally clean: the hardening layer observed nothing.
  EXPECT_EQ(h.kernel().harden_stats().canary_aborts, 0u);
  EXPECT_EQ(h.kernel().harden_stats().redzone_violations, 0u);
}

core::ScenarioConfig hardened_leak_scenario() {
  core::ScenarioConfig cfg;
  cfg.host = "basicmath";
  cfg.host_scale = 2000;
  cfg.secret = "HARDEN-SECRET-16";
  cfg.rop_injected = true;
  cfg.harden = harden::preset("full");
  cfg.leak_stage = true;
  cfg.seed = 77;
  return cfg;
}

/// Everything the hardening layer adds to a run, serialised for exact
/// restored-vs-fresh comparison.
std::string harden_fingerprint(const core::ScenarioRun& run) {
  std::ostringstream os;
  os << run.profile.cycles << ':' << run.profile.instructions << ':'
     << run.attack_launched << ':' << run.secret_recovered << ':'
     << run.recovered << ':' << run.leak_stage_ran << ':'
     << run.leak.found_base << ':' << run.leak.base_delta << ':'
     << run.leak.canary << ':' << run.leak.stack_pointer << ':'
     << run.harden.total_events() << ':' << run.harden.canary_aborts;
  return os.str();
}

TEST(HardenScenario, LeakStageDefeatsFullHardening) {
  const core::ScenarioConfig cfg = hardened_leak_scenario();
  const core::ScenarioRun run = core::run_scenario(cfg);
  EXPECT_TRUE(run.leak_stage_ran);
  EXPECT_TRUE(run.leak.found_base);
  EXPECT_TRUE(run.attack_launched);
  EXPECT_TRUE(run.secret_recovered);
  EXPECT_EQ(run.recovered, cfg.secret);
  // The patched payload restores the leaked canary, so the smash is
  // invisible to the epilogue check.
  EXPECT_EQ(run.harden.canary_aborts, 0u);
}

TEST(HardenScenario, CanaryBlocksClassicOverflow) {
  core::ScenarioConfig cfg = hardened_leak_scenario();
  cfg.leak_stage = false;
  cfg.harden = harden::preset("canary");
  const core::ScenarioRun run = core::run_scenario(cfg);
  EXPECT_FALSE(run.attack_launched);
  EXPECT_FALSE(run.secret_recovered);
  EXPECT_GE(run.harden.canary_aborts, 1u);
}

TEST(HardenScenario, AslrAloneBlocksUnleakedPayload) {
  core::ScenarioConfig cfg = hardened_leak_scenario();
  cfg.leak_stage = false;
  cfg.harden = harden::HardenConfig{};
  cfg.harden.aslr = true;
  const core::ScenarioRun run = core::run_scenario(cfg);
  // Link-time gadget addresses land below the relocated image: the hijacked
  // return faults before reaching the execve chain.
  EXPECT_FALSE(run.attack_launched);
  EXPECT_FALSE(run.secret_recovered);
}

TEST(HardenMatrix, GridSeparatesClassicFromSpeculative) {
  core::HardenMatrixConfig cfg;
  cfg.quick = true;
  cfg.seed = 29;
  cfg.host_scale = 2000;
  const hid::DetectorMemoStats memo_before = hid::detector_memo_stats();
  const core::HardenMatrixResult r = core::run_harden_matrix(cfg);

  // The sweep is unscored: it fits no detector and scores no cell.
  const hid::DetectorMemoStats memo_after = hid::detector_memo_stats();
  EXPECT_EQ(memo_after.hits + memo_after.misses,
            memo_before.hits + memo_before.misses);
  for (const auto& c : r.cells) EXPECT_EQ(c.hid_detection, 0.0) << c.attack;

  // Classic stack overflow: leaks when unhardened, dead under canary, aslr
  // and the full stack (the canary abort fires before the chain's first
  // gadget; under aslr the link-time gadget addresses fault).
  EXPECT_GT(r.cell("stack-overflow", "none").leak_rate, 0.0);
  EXPECT_EQ(r.cell("stack-overflow", "canary").launches, 0);
  EXPECT_EQ(r.cell("stack-overflow", "canary").leak_rate, 0.0);
  EXPECT_GT(r.cell("stack-overflow", "canary").harden_events, 0u);
  EXPECT_EQ(r.cell("stack-overflow", "aslr").leak_rate, 0.0);
  EXPECT_EQ(r.cell("stack-overflow", "full").leak_rate, 0.0);

  // The probe-parameterized injection and the speculative store overflow
  // keep leaking against the full preset — the defense-awareness thesis.
  EXPECT_GT(r.cell("spec-probe-rop", "full").leak_rate, 0.0);
  EXPECT_GT(r.cell("spec-probe-rop", "full").base_leaks, 0);
  EXPECT_GT(r.cell("spectre-1.1", "full").leak_rate, 0.0);
  EXPECT_GT(r.cell("spectre-1.1", "aslr").leak_rate, 0.0);

  const std::string csv = core::harden_matrix_csv(r);
  EXPECT_NE(csv.find("attack,preset,attempts,launches,leaks"),
            std::string::npos);
  EXPECT_EQ(r.cells.size(),
            r.attacks.size() * r.presets.size());
}

/// Both CSVs of a sweep plus its cost column's bit patterns.
std::string sweep_bytes(const core::HardenMatrixResult& r) {
  std::string out =
      core::harden_matrix_csv(r) + core::harden_matrix_metrics_csv(r);
  for (const double pct : r.ipc_overhead_pct) {
    out += std::to_string(std::bit_cast<std::uint64_t>(pct)) + ",";
  }
  return out;
}

TEST(HardenMatrix, QuickSweepIsThreadCountInvariant) {
  // The leak-stage row and the aslr/full columns read their seeds, so the
  // sweep runs their attempts as separate pool items; the fold must not
  // notice how they were spread.
  core::HardenMatrixConfig cfg;
  cfg.quick = true;
  cfg.seed = 31;
  cfg.host_scale = 2000;
  std::vector<std::string> sweeps;
  for (const unsigned threads : {1u, 3u}) {
    set_thread_override(threads);
    sweeps.push_back(sweep_bytes(core::run_harden_matrix(cfg)));
  }
  set_thread_override(0);
  EXPECT_EQ(sweeps[0], sweeps[1])
      << "the sweep must be byte-identical for any thread count";
  EXPECT_NE(sweeps[0].find("spec-probe-rop,full"), std::string::npos);
}

TEST(HardenMatrix, CostColumnIsDefenseOverheadPct) {
  // The grid runs its cost column as separate probe items; each column
  // must still be exactly what defense_overhead_pct measures.
  core::HardenMatrixConfig cfg;
  cfg.quick = true;
  cfg.seed = 37;
  const core::HardenMatrixResult r = core::run_harden_matrix(cfg);
  ASSERT_EQ(r.ipc_overhead_pct.size(), r.presets.size());
  for (std::size_t i = 0; i < r.presets.size(); ++i) {
    core::OverheadConfig oc;
    oc.repeats = cfg.effective_overhead_repeats();
    oc.secret = cfg.secret;
    oc.seed = derive_seed(cfg.seed ^ 0x0E4, i);
    const double direct = core::defense_overhead_pct(
        "basicmath", cfg.host_scale, {}, harden::preset(r.presets[i]), oc);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(direct),
              std::bit_cast<std::uint64_t>(r.ipc_overhead_pct[i]))
        << r.presets[i];
  }
}

TEST(HardenScenario, SessionRestoreMatchesFresh) {
  const core::ScenarioConfig cfg = hardened_leak_scenario();
  core::ScenarioSession session(cfg);
  const std::string first = harden_fingerprint(session.run_attempt(cfg.seed));
  const std::string second =
      harden_fingerprint(session.run_attempt(cfg.seed + 1));
  const std::string again = harden_fingerprint(session.run_attempt(cfg.seed));
  EXPECT_EQ(first, again);

  core::ScenarioSession fresh(cfg);
  EXPECT_EQ(harden_fingerprint(fresh.run_attempt(cfg.seed)), first);
  EXPECT_EQ(harden_fingerprint(fresh.run_attempt(cfg.seed + 1)), second);
  // Different attempt seeds draw different layouts, so the leak differs.
  EXPECT_NE(first, second);
}

}  // namespace
}  // namespace crs
