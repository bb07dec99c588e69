// Tests for the mitigation subsystem: the fence-insertion pass (including
// its decode-cache coherence obligations), per-mitigation hardware
// semantics, and the end-to-end attack-vs-defense story the evaluation
// matrix depends on. MitigationConfig's text form and counter folds are
// tested with HardenConfig's in test_flag_table.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/defense_matrix.hpp"
#include "core/overhead.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "fuzz/differ.hpp"
#include "fuzz/generator.hpp"
#include "harness.hpp"
#include "mitigate/config.hpp"
#include "mitigate/fence_pass.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace crs {
namespace {

using mitigate::MitigationConfig;
using sim::StopReason;
using test::SimHarness;

/// Flag set from a 7-bit mask, in flag-table order (for random sweeps).
MitigationConfig config_from_mask(unsigned mask) {
  MitigationConfig c;
  c.fence_bounds = (mask & 1) != 0;
  c.slh = (mask & 2) != 0;
  c.retpoline = (mask & 4) != 0;
  c.flush_predictors = (mask & 8) != 0;
  c.flush_l1 = (mask & 16) != 0;
  c.partition_cache = (mask & 32) != 0;
  c.ward_split = (mask & 64) != 0;
  return c;
}

// --- fence-insertion pass -------------------------------------------------

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
    "  mov r1, r2\n"
    "  call exit_\n";

TEST(FencePass, PlantsOnBoundsChecksOnly) {
  sim::Program program = test::assemble_with_runtime(
      "_start:\n"
      "  movi r1, 8\n"
      "  cmpltu r3, r2, r1\n"
      "  beqz r3, over\n"      // compare-fed: fenced
      "over:\n"
      "  movi r4, 1\n"
      "  beqz r4, over2\n"     // movi-fed: not a bounds check
      "over2:\n"
      "  movi r1, 0\n"
      "  call exit_\n");
  const auto stats = mitigate::insert_bounds_fences(program);
  EXPECT_GE(stats.pages_scanned, 1u);
  // The runtime library contributes its own compare-fed branches, so assert
  // on relative structure via a second pass: it finds nothing new.
  const auto again = mitigate::insert_bounds_fences(program);
  EXPECT_GT(stats.fences_planted, 0u);
  EXPECT_EQ(again.fences_planted, 0u) << "pass must be idempotent";
  EXPECT_EQ(again.branches_scanned, stats.branches_scanned);
}

TEST(FencePass, HintedImageIsInertWithoutTheCpuFlag) {
  // An un-hardened machine must execute a hinted image bit-identically:
  // the hint lives in an architecturally unused encoding byte.
  sim::Program hinted = test::assemble_with_runtime(kBoundsLoop);
  const auto stats = mitigate::insert_bounds_fences(hinted);
  ASSERT_GT(stats.fences_planted, 0u);

  SimHarness plain;
  plain.add_program(kBoundsLoop, "/bin/t");
  ASSERT_EQ(plain.run_program("/bin/t"), StopReason::kHalted);

  SimHarness carrier;  // hints present, honor_fence_hints off (default)
  carrier.kernel().register_binary("/bin/t", hinted);
  carrier.kernel().start_with_strings("/bin/t", {"t"});
  ASSERT_EQ(carrier.kernel().run(10'000'000), StopReason::kHalted);

  EXPECT_EQ(carrier.kernel().exit_code(), plain.kernel().exit_code());
  EXPECT_EQ(carrier.machine().cpu().retired(), plain.machine().cpu().retired());
  EXPECT_EQ(carrier.machine().cpu().cycle(), plain.machine().cpu().cycle());
  EXPECT_EQ(carrier.machine().cpu().mitigation_stats().fence_stalls, 0u);
}

TEST(FencePass, HonoredHintsCloseTheSpeculationWindow) {
  sim::MachineConfig mcfg;
  mcfg.cpu.honor_fence_hints = true;
  sim::KernelConfig kcfg;
  SimHarness h(kcfg, mcfg);
  mitigate::MitigationConfig mit;
  mit.fence_bounds = true;
  const mitigate::Armed armed = mitigate::arm(h.kernel(), mit);
  h.add_program(kBoundsLoop, "/bin/t");
  ASSERT_EQ(h.run_program("/bin/t"), StopReason::kHalted);
  EXPECT_GT(armed.fence_stats->fences_planted, 0u);
  const auto& ms = h.machine().cpu().mitigation_stats();
  EXPECT_GT(ms.fence_stalls, 0u);
  // The loop-exit misprediction had its wrong-path episode denied.
  EXPECT_GT(ms.fence_squashes, 0u);
}

// Satellite regression: a fence pass rewriting an already-executing page
// must invalidate the pre-decoded slots — stale un-hinted decodes would
// silently re-open the speculation window the pass just closed.
TEST(FencePass, MidRunRewriteInvalidatesDecodeCache) {
  for (const bool decode_cache : {true, false}) {
    sim::MachineConfig mcfg;
    mcfg.cpu.decode_cache = decode_cache;
    mcfg.cpu.honor_fence_hints = true;
    SimHarness h({}, mcfg);
    h.add_program(kBoundsLoop, "/bin/t");
    h.kernel().start_with_strings("/bin/t", {"t"});

    // Warm the decode cache on the un-hinted loop body.
    auto& cpu = h.machine().cpu();
    for (int i = 0; i < 40 && !cpu.halted(); ++i) cpu.step();
    ASSERT_FALSE(cpu.halted());
    ASSERT_EQ(cpu.mitigation_stats().fence_stalls, 0u)
        << "no hints may fire before the pass runs";

    // Harden the mapped image in place, mid-run.
    const auto& img = h.kernel().main_image();
    const auto stats =
        mitigate::insert_bounds_fences(h.machine().memory(), img.lo, img.hi);
    ASSERT_GT(stats.fences_planted, 0u);

    ASSERT_TRUE(h.run_to_halt(1'000'000));
    EXPECT_GT(cpu.mitigation_stats().fence_stalls, 0u)
        << "decode_cache=" << decode_cache
        << ": stale pre-pass decodes executed after the rewrite";
  }
}

// --- kernel hygiene & cache partitioning ---------------------------------

TEST(Hygiene, KernelEntryFlushesPredictorsAndL1) {
  sim::KernelConfig kcfg;
  kcfg.flush_predictors_on_switch = true;
  kcfg.flush_l1_on_switch = true;
  SimHarness h(kcfg);
  h.add_program(kBoundsLoop, "/bin/t");
  ASSERT_EQ(h.run_program("/bin/t"), StopReason::kHalted);
  const auto& ks = h.kernel().mitigation_stats();
  EXPECT_GT(ks.predictor_flushes, 0u);
  EXPECT_GT(ks.predictor_entries_flushed, 0u)
      << "the trained loop branch must have been dropped";
  EXPECT_GT(ks.l1_flushes, 0u);
  EXPECT_GT(ks.l1_lines_flushed, 0u);
  // Post-exit predictor state is scrubbed (exit_ is a syscall).
  EXPECT_EQ(h.machine().predictor().rsb().depth(), 0u);
}

TEST(Partition, CrossDomainEvictionsAreBlocked) {
  sim::CacheConfig cfg;
  cfg.size_bytes = 4 * 1024;  // 16 sets x 4 ways x 64B
  cfg.ways = 4;
  cfg.partition_ways = 2;
  sim::CacheLevel cache(cfg);
  const std::uint64_t boundary = 1 << 20;
  cache.set_partition_boundary(boundary);
  ASSERT_TRUE(cache.partition_armed());

  // Two victim lines in set 0 fit its 2 reserved ways.
  const std::uint64_t set_span = 16 * 64;
  cache.access(0 * set_span);
  cache.access(1 * set_span);
  // An attacker storm mapping to the same set must not evict them.
  for (std::uint64_t i = 0; i < 64; ++i) {
    cache.access(boundary + i * set_span);
  }
  EXPECT_TRUE(cache.access(0 * set_span)) << "victim line evicted";
  EXPECT_TRUE(cache.access(1 * set_span)) << "victim line evicted";
  EXPECT_GT(cache.stats().partition_fills, 0u);
  EXPECT_GT(cache.stats().partition_blocked, 0u)
      << "the storm should have wanted the victim ways";
}

// --- end-to-end: mitigations vs the paper's attacks ----------------------

core::ScenarioConfig standalone_pht() {
  core::ScenarioConfig cfg;
  cfg.variant = attack::SpectreVariant::kPht;
  cfg.rop_injected = false;
  cfg.secret = "S3CRET";
  cfg.seed = 7;
  return cfg;
}

TEST(DefenseE2E, UndefendedSpectreLeaksAndFenceBlocksIt) {
  core::ScenarioConfig cfg = standalone_pht();
  const core::ScenarioRun undefended = core::run_scenario(cfg);
  ASSERT_TRUE(undefended.secret_recovered)
      << "baseline broken: recovered '" << undefended.recovered << "'";
  EXPECT_EQ(undefended.mitigation.total_events(), 0u);

  cfg.mitigations = mitigate::preset("lfence-bounds");
  const core::ScenarioRun fenced = core::run_scenario(cfg);
  EXPECT_FALSE(fenced.secret_recovered)
      << "lfence-bounds failed to stop the PHT leak";
  EXPECT_GT(fenced.mitigation.fences_planted, 0u);
  EXPECT_GT(fenced.mitigation.fence_stalls, 0u);

  cfg.mitigations = mitigate::preset("slh");
  const core::ScenarioRun hardened = core::run_scenario(cfg);
  EXPECT_FALSE(hardened.secret_recovered)
      << "SLH failed to poison the transient probe";
  EXPECT_GT(hardened.mitigation.slh_masked_loads, 0u);
}

TEST(DefenseE2E, RetpolineBlocksRsbMisdirection) {
  core::ScenarioConfig cfg = standalone_pht();
  cfg.variant = attack::SpectreVariant::kRsb;
  ASSERT_TRUE(core::run_scenario(cfg).secret_recovered);
  cfg.mitigations = mitigate::preset("retpoline");
  const core::ScenarioRun defended = core::run_scenario(cfg);
  EXPECT_FALSE(defended.secret_recovered);
  EXPECT_GT(defended.mitigation.retpoline_suppressions, 0u);
}

TEST(DefenseE2E, WardSplitStopsCrSpectreCrossImageLeak) {
  core::ScenarioConfig cfg;
  cfg.variant = attack::SpectreVariant::kPht;
  cfg.rop_injected = true;
  cfg.host_scale = 3000;
  cfg.secret = "S3CRET";
  cfg.seed = 11;
  const core::ScenarioRun undefended = core::run_scenario(cfg);
  ASSERT_TRUE(undefended.secret_recovered) << "CR-Spectre baseline broken";

  cfg.mitigations = mitigate::preset("ward-split");
  const core::ScenarioRun defended = core::run_scenario(cfg);
  EXPECT_FALSE(defended.secret_recovered)
      << "unmapped host secret still leaked";
  EXPECT_GT(defended.mitigation.ward_lockouts, 0u);
  EXPECT_GT(defended.mitigation.ward_pages_locked, 0u);
  // The ward unmap is transparent to the host's architectural run.
  EXPECT_EQ(defended.profile.stop, StopReason::kHalted);
}

// Snapshot restore across the heaviest state-mutating defenses: a ward-split
// run leaves locked/unlocked page-permission churn behind and the fence pass
// rewrites the host's code pages at load time. Restoring over that wreckage
// must reproduce the exact pre-start permissions and contents (with page
// versions strictly advanced), so a session's second attempt is
// byte-identical to a fresh machine's first.
TEST(DefenseE2E, SnapshotRestoreReproducesWardSplitAndFenceRuns) {
  core::ScenarioConfig cfg;
  cfg.variant = attack::SpectreVariant::kPht;
  cfg.rop_injected = true;
  cfg.host_scale = 3000;
  cfg.secret = "S3CRET";
  cfg.seed = 11;
  // full = ward-split + fence rewrite + partition + flush hygiene: every
  // restore-sensitive mitigation at once.
  cfg.mitigations = mitigate::preset("full");

  const auto fingerprint = [](const core::ScenarioRun& run) {
    return core::windows_to_csv(run.profile.windows) + run.recovered + ":" +
           std::to_string(run.secret_recovered) + ":" +
           std::to_string(run.profile.cycles) + ":" +
           std::to_string(run.mitigation.total_events()) + ":" +
           std::to_string(run.mitigation.ward_lockouts) + ":" +
           std::to_string(run.mitigation.fences_planted);
  };

  core::ScenarioSession session(cfg);
  const core::ScenarioRun first = session.run_attempt(cfg.seed);
  EXPECT_GT(first.mitigation.ward_lockouts, 0u)
      << "scenario never engaged the ward split — restore not exercised";
  // Attempt 2 restores over ward-locked pages and fence-rewritten text.
  const core::ScenarioRun second = session.run_attempt(cfg.seed);
  EXPECT_EQ(fingerprint(first), fingerprint(second));

  // And a fresh session agrees, under a different attempt seed too.
  const core::ScenarioRun third = session.run_attempt(cfg.seed + 13);
  core::ScenarioSession fresh(cfg);
  EXPECT_EQ(fingerprint(third), fingerprint(fresh.run_attempt(cfg.seed + 13)));
}

// --- defense matrix -------------------------------------------------------

TEST(DefenseMatrix, QuickMatrixIsThreadCountInvariant) {
  core::DefenseMatrixConfig cfg;
  cfg.quick = true;
  cfg.seed = 5;
  cfg.presets = {"none", "lfence-bounds"};

  std::vector<std::string> csvs;
  for (const unsigned threads : {1u, 3u}) {
    set_thread_override(threads);
    const auto result = core::run_defense_matrix(cfg);
    csvs.push_back(core::matrix_csv(result) +
                   core::matrix_metrics_csv(result));
  }
  set_thread_override(0);
  EXPECT_EQ(csvs[0], csvs[1])
      << "matrix must be byte-identical for any thread count";
  EXPECT_NE(csvs[0].find("spectre-pht,none"), std::string::npos);
}

TEST(DefenseMatrix, CostColumnIsDefenseOverheadPct) {
  // The grid runs its cost column as separate probe items; each column
  // must still be exactly what defense_overhead_pct measures.
  core::DefenseMatrixConfig cfg;
  cfg.quick = true;
  cfg.seed = 7;
  const core::DefenseMatrixResult r = core::run_defense_matrix(cfg);
  ASSERT_EQ(r.ipc_overhead_pct.size(), r.presets.size());
  for (std::size_t i = 0; i < r.presets.size(); ++i) {
    core::OverheadConfig oc;
    oc.repeats = cfg.effective_overhead_repeats();
    oc.secret = cfg.secret;
    oc.seed = derive_seed(cfg.seed ^ 0x0E4, i);
    const double direct = core::defense_overhead_pct(
        "basicmath", cfg.host_scale, mitigate::preset(r.presets[i]), {}, oc);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(direct),
              std::bit_cast<std::uint64_t>(r.ipc_overhead_pct[i]))
        << r.presets[i];
  }
}

TEST(DefenseMatrix, RejectsUnknownPresetUpFront) {
  core::DefenseMatrixConfig cfg;
  cfg.quick = true;
  cfg.presets = {"none", "not-a-defense"};
  EXPECT_THROW(core::run_defense_matrix(cfg), Error);
  // A repeated column would run twice and be double-counted by
  // preset_summary; the same up-front check refuses it in both grids.
  cfg.presets = {"lfence-bounds", "lfence-bounds"};
  EXPECT_THROW(core::run_defense_matrix(cfg), Error);
  cfg.presets = {"canary", "none", "canary"};
  EXPECT_THROW(core::run_harden_matrix(cfg), Error);
}

// --- property: mitigations preserve the differ's invariants ---------------

/// Builds the differ ExecConfig for one mitigation combo: flags lowered
/// onto machine+kernel config, runtime pieces armed via the prepare hook.
fuzz::ExecConfig mitigated_exec_config(const MitigationConfig& mit) {
  fuzz::ExecConfig cfg;
  cfg.name = "mitigated:" + mit.serialize();
  mit.apply(cfg.machine, cfg.kernel);
  cfg.prepare = [mit](sim::Kernel& kernel) {
    // Armed stats handle is test-local; keep the shared_ptr alive inside
    // the hook itself (the summary is not inspected here).
    (void)mitigate::arm(kernel, mit);
  };
  return cfg;
}

TEST(MitigationProperty, AnyComboKeepsDifferInvariantsGreenAcrossThreads) {
  // Random programs × random mitigation combos, executed on 1/2/8-wide
  // pools: every run must satisfy the cache/PMU invariants, and per-index
  // results must not depend on the pool width.
  constexpr int kItems = 12;
  fuzz::GeneratorOptions gopt;
  const fuzz::RunLimits limits{.max_instructions = 60'000, .stream_chunk = 512};

  const auto run_batch = [&](unsigned threads) {
    ThreadPool pool(threads);
    return parallel_map<std::string>(pool, kItems, [&](std::size_t i) {
      Rng rng(derive_seed(0xD3F3, i));
      const fuzz::FuzzProgram prog = fuzz::generate_program(rng, gopt);
      const MitigationConfig mit =
          config_from_mask(static_cast<unsigned>(rng.next_below(128)));
      const sim::Program image = test::assemble_with_runtime(prog.source());
      const fuzz::ExecResult res = fuzz::run_under_config(
          image, mitigated_exec_config(mit), limits, prog.uses_smc);
      EXPECT_EQ(res.invariant_failure, "")
          << "combo '" << mit.serialize() << "' item " << i;
      // Fingerprint the run for the cross-thread comparison.
      std::string fp = mit.serialize() + '|' + std::to_string(res.retired) +
                       '|' + std::to_string(res.cycle) + '|' +
                       std::to_string(res.pc) + '|' +
                       std::to_string(static_cast<int>(res.stop)) + '|' +
                       res.output;
      for (const auto r : res.regs) fp += ',' + std::to_string(r);
      return fp;
    });
  };

  const auto serial = run_batch(1);
  EXPECT_EQ(serial, run_batch(2));
  EXPECT_EQ(serial, run_batch(8));
}

}  // namespace
}  // namespace crs
