// Snapshot/restore: the rollback contract behind every repeated attempt.
//
// A ScenarioSession rolls its forked machine back to the frozen baseline
// before every attempt, so the subsystem hangs on one promise — a restored
// machine is indistinguishable from a fresh fork, and a session's later
// attempts are bit-identical to run_scenario at the same seed. These tests
// pin that promise from every angle: restore page mechanics, scenario
// sessions over every default grid row, campaign results across thread
// counts, fuzz-corpus differential runs of forked machines against a fresh
// Machine(config), and LruCache semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "core/campaign.hpp"
#include "core/corpus.hpp"
#include "core/defense_matrix.hpp"
#include "core/harden_matrix.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "fuzz/differ.hpp"
#include "fuzz/generator.hpp"
#include "obs/metrics.hpp"
#include "sim/snapshot.hpp"
#include "support/memo.hpp"
#include "support/parallel.hpp"

namespace crs {
namespace {

core::ScenarioConfig small_scenario() {
  core::ScenarioConfig config;
  config.host = "basicmath";
  config.host_scale = 300;
  config.secret = "SNAP-SECRET";
  config.rop_injected = true;
  config.perturb = true;
  config.seed = 99;
  return config;
}

/// Everything observable about a run, serialised for exact comparison.
std::string run_fingerprint(const core::ScenarioRun& run) {
  std::ostringstream os;
  os << core::windows_to_csv(run.profile.windows);
  os << "attack_csv:" << core::windows_to_csv(run.attack_windows);
  os << "host_csv:" << core::windows_to_csv(run.host_windows);
  os << "launched:" << run.attack_launched
     << " recovered:" << run.secret_recovered << " secret:" << run.recovered
     << " host_ipc:" << run.host_ipc << " cycles:" << run.profile.cycles
     << " instructions:" << run.profile.instructions
     << " mitigation_events:" << run.mitigation.total_events()
     << " harden_events:" << run.harden.total_events()
     << " leak_ran:" << run.leak_stage_ran
     << " leak_base:" << run.leak.found_base << '/' << run.leak.base_delta
     << " leak_canary:" << run.leak.canary
     << " leak_sp:" << run.leak.stack_pointer;
  return os.str();
}

// --- restore mechanics ----------------------------------------------------

TEST(SnapshotTest, RestoreBumpsVersionsAndRewritesBytes) {
  sim::Machine machine;
  sim::MachineSnapshot snap = machine.snapshot();
  // Fresh machine: all pristine, so the frozen image stores no pages.
  EXPECT_EQ(snap.baseline()->image()->stored_page_count(), 0u);

  auto& mem = machine.memory();
  mem.set_permissions(0, 2 * sim::Memory::kPageSize, sim::kPermRW);
  mem.write_u64(8, 0x1111);
  mem.write_u64(sim::Memory::kPageSize + 8, 0x2222);
  const std::uint32_t dirty_version = mem.page_version(0);

  machine.restore(snap);
  EXPECT_EQ(snap.last_restored_pages(), 2u);
  EXPECT_EQ(mem.read_u64(8), 0u);
  EXPECT_EQ(mem.permissions_at(0), sim::kPermNone);
  // The invariant the decode cache depends on: versions only ever advance.
  EXPECT_GT(mem.page_version(0), dirty_version);

  // Untouched attempt: nothing to restore (dirty tracking re-baselined).
  machine.restore(snap);
  EXPECT_EQ(snap.last_restored_pages(), 0u);
  EXPECT_EQ(snap.restore_count(), 2u);
}

// --- scenario sessions ----------------------------------------------------

/// A session's first attempt runs on memo-served artifacts; built cold or
/// served from the memo, the run is the same.
TEST(ScenarioSession, FirstAttemptMatchesColdBuiltRunScenario) {
  core::ScenarioConfig config = small_scenario();
  config.secret = "COLD-MEMO-SECRET";  // a workload key no other test builds
  const auto before = core::scenario_memo_stats();
  const std::string cold = run_fingerprint(core::run_scenario(config));
  const auto built = core::scenario_memo_stats();
  EXPECT_GT(built.workload_misses, before.workload_misses);
  const std::string served = run_fingerprint(core::run_scenario(config));
  EXPECT_GT(core::scenario_memo_stats().workload_hits, built.workload_hits);
  EXPECT_EQ(cold, served);
}

TEST(ScenarioSession, RestoredAttemptMatchesFreshSession) {
  const core::ScenarioConfig config = small_scenario();

  core::ScenarioSession session(config);
  (void)session.run_attempt(config.seed);       // dirty the machine
  (void)session.run_attempt(config.seed + 7);   // restore + dirty again
  const std::string restored =
      run_fingerprint(session.run_attempt(config.seed + 3));

  core::ScenarioSession fresh(config);
  const std::string first =
      run_fingerprint(fresh.run_attempt(config.seed + 3));

  EXPECT_EQ(restored, first);
  EXPECT_EQ(session.attempts(), 3u);
}

TEST(ScenarioSession, RestoredStandaloneAttackMatchesFresh) {
  core::ScenarioConfig config = small_scenario();
  config.rop_injected = false;
  config.perturb = false;

  core::ScenarioSession session(config);
  (void)session.run_attempt(config.seed);
  const std::string restored =
      run_fingerprint(session.run_attempt(config.seed + 1));

  core::ScenarioSession fresh(config);
  const std::string first =
      run_fingerprint(fresh.run_attempt(config.seed + 1));
  EXPECT_EQ(restored, first);
}

TEST(ScenarioSession, DynamicPerturbParamsRebuildOnlyAttackBinary) {
  const core::ScenarioConfig config = small_scenario();

  perturb::PerturbParams mutated = config.perturb_params;
  mutated.delay += 250;
  mutated.loop_count += 3;

  core::ScenarioSession session(config);
  (void)session.run_attempt(config.seed);
  const std::string mutated_in_session =
      run_fingerprint(session.run_attempt(config.seed + 5, mutated));
  // Switching back must also reproduce the original-params run exactly.
  const std::string back =
      run_fingerprint(session.run_attempt(config.seed + 6));

  core::ScenarioConfig mcfg = config;
  mcfg.perturb_params = mutated;
  core::ScenarioSession fresh_mutated(mcfg);
  EXPECT_EQ(mutated_in_session,
            run_fingerprint(fresh_mutated.run_attempt(config.seed + 5)));

  core::ScenarioSession fresh_back(config);
  EXPECT_EQ(back, run_fingerprint(fresh_back.run_attempt(config.seed + 6)));
}

/// Every default row of both grids, under each grid's `none` and `full`
/// preset: two attempts dirty the session's machine (ward locks, fence
/// rewrites, randomized layouts, leak-stage probe passes), and the third
/// must still equal run_scenario at the session seed.
TEST(ScenarioSession, ThirdAttemptMatchesRunScenarioOnEveryGridRow) {
  std::vector<std::pair<std::string, core::ScenarioConfig>> cells;
  core::DefenseMatrixConfig dcfg;
  dcfg.host_scale = 600;
  for (const auto& attack : core::default_attacks(dcfg)) {
    for (const char* preset : {"none", "full"}) {
      core::ScenarioConfig c = attack.scenario;
      c.mitigations = mitigate::preset(preset);
      cells.emplace_back(attack.name + "/" + preset, c);
    }
  }
  core::HardenMatrixConfig hcfg;
  hcfg.host_scale = 600;
  for (const auto& attack : core::default_harden_attacks(hcfg)) {
    for (const char* preset : {"none", "full"}) {
      core::ScenarioConfig c = attack.scenario;
      c.harden = harden::preset(preset);
      cells.emplace_back(attack.name + "/" + preset, c);
    }
  }
  ASSERT_EQ(cells.size(), 12u);  // 6 rows x {none, full}

  for (auto& [name, config] : cells) {
    config.seed = 0x5EED;
    core::ScenarioSession session(config);
    (void)session.run_attempt(config.seed + 1);
    (void)session.run_attempt(config.seed + 2);
    const std::string third = run_fingerprint(session.run_attempt(config.seed));
    EXPECT_EQ(third, run_fingerprint(core::run_scenario(config))) << name;
  }
}

// --- campaigns and the fuzz differ ----------------------------------------

/// Campaign results (records + published metrics) must be identical for any
/// worker count.
TEST(CampaignDeterminism, ThreadCountInvariant) {
  core::CorpusConfig cc;
  cc.windows_per_class = 24;
  cc.seed = 5;
  const ml::Dataset benign = core::build_benign_corpus(cc);
  const ml::Dataset attack = core::build_attack_corpus(cc);

  core::CampaignConfig config;
  config.attempts = 4;
  config.seed = 11;
  config.scenario = small_scenario();

  const auto fingerprint = [&](unsigned threads) {
    set_thread_override(threads);
    obs::MetricsRegistry::instance().reset_values();
    const core::CampaignResult result =
        core::run_campaign(config, benign, attack);
    std::ostringstream os;
    for (const auto& a : result.attempts) {
      os << a.attempt << ':' << a.detection_rate << ':' << a.sim_cycles << ':'
         << a.secret_recovered << ':' << a.host_ipc << ':'
         << a.attack_window_count << '\n';
    }
    os << obs::MetricsRegistry::instance().csv();
    set_thread_override(0);
    return os.str();
  };

  const std::string one = fingerprint(1);
  EXPECT_EQ(one, fingerprint(2));
  EXPECT_EQ(one, fingerprint(8));
}

/// The fuzz differ's own machine, a fork of the shared baseline, must behave
/// exactly like a freshly constructed Machine(config), for every corpus
/// program.
TEST(FuzzDifferential, ForkedMachineMatchesFreshBuild) {
  fuzz::GeneratorOptions options;
  options.allow_rdcycle = false;
  const fuzz::RunLimits limits;
  const fuzz::ExecConfig base_config;

  for (std::uint64_t i = 0; i < 6; ++i) {
    Rng rng(derive_seed(0xF00D, i));
    const fuzz::FuzzProgram prog = fuzz::generate_program(rng, options);
    const sim::Program binary =
        casm::assemble(prog.source() + casm::runtime_library(),
                       {.name = "fuzz", .link_base = 0x10000});

    sim::Machine fresh_machine(base_config.machine);
    const fuzz::ExecResult fresh = fuzz::run_under_config(
        binary, base_config, limits, prog.uses_smc, &fresh_machine);
    const fuzz::ExecResult forked =
        fuzz::run_under_config(binary, base_config, limits, prog.uses_smc);
    EXPECT_EQ(fuzz::compare_results(fresh, forked, /*arch_only=*/false), "")
        << "program " << i;
  }
}

// --- build memoization ----------------------------------------------------

TEST(LruCacheTest, HitsAndMisses) {
  LruCache<int, const int> cache;
  int builds = 0;
  const auto build = [&] { return ++builds; };
  EXPECT_EQ(*cache.get_or_build(1, build), 1);
  EXPECT_EQ(*cache.get_or_build(1, build), 1);  // cached
  EXPECT_EQ(*cache.get_or_build(2, build), 2);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, CapacityEvictsLeastRecentlyUsed) {
  LruCache<int, const int> cache(2);
  int builds = 0;
  const auto build = [&] { return ++builds; };
  const auto one = cache.get_or_build(1, build);
  cache.get_or_build(2, build);
  cache.get_or_build(1, build);  // 1 is now the most recently used
  cache.get_or_build(3, build);  // evicts 2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*cache.get_or_build(1, build), 1);
  EXPECT_EQ(*cache.get_or_build(3, build), 3);
  EXPECT_EQ(builds, 3);
  EXPECT_EQ(*cache.get_or_build(2, build), 4);  // rebuilt, evicting 1
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(*one, 1) << "a handed-out artifact outlives its eviction";
  EXPECT_EQ(*cache.get_or_build(1, build), 5);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 5u);
  cache.set_capacity(1);  // lowering the bound evicts down at once
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.get_or_build(1, build), 5);
}

TEST(LruCacheTest, RacingCallersOfAKeyShareOneValue) {
  // Builds run outside the lock, so threads racing on a cold key may each
  // build one; the first insert must win for every caller, and every call
  // must count as exactly one hit or one miss.
  constexpr int kThreads = 8;
  constexpr int kCalls = 400;
  constexpr int kKeys = 16;
  LruCache<int, const int> cache;
  std::atomic<int> builds{0};
  std::atomic<bool> go{false};
  std::vector<std::vector<int>> seen(kThreads, std::vector<int>(kKeys, -1));
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (int i = 0; i < kCalls; ++i) {
        const int key = (i + t) % kKeys;  // threads overlap on every key
        const int value = *cache.get_or_build(key, [&] {
          std::this_thread::yield();  // widen the cold-key race
          return builds.fetch_add(1);
        });
        if (seen[t][key] < 0) seen[t][key] = value;
        if (seen[t][key] != value) ++mismatches[t];
      }
    });
  }
  go.store(true);
  for (std::thread& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
    for (int key = 0; key < kKeys; ++key) {
      EXPECT_EQ(seen[t][key], seen[0][key]) << "thread " << t << " key "
                                            << key;
    }
  }
  EXPECT_EQ(cache.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads * kCalls));
  EXPECT_EQ(cache.misses(), static_cast<std::uint64_t>(builds.load()));
}

TEST(SnapshotTest, ScenarioMemosStayAtCapacityUnderFreshKeys) {
  // Fresh-seed traffic builds a new workload, plan and attack binary per
  // session; the memos keep the most recent kScenarioMemoCapacity.
  const auto config_for = [](std::size_t i) {
    core::ScenarioConfig config = small_scenario();
    config.secret = "BOUND-" + std::to_string(1000 + i);  // workload + plan
    config.perturb_params.delay = static_cast<int>(100 + i);  // attack
    return config;
  };
  core::ScenarioSession early(config_for(0));
  const std::string expected = run_fingerprint(early.run_attempt(5));
  for (std::size_t i = 1; i <= core::kScenarioMemoCapacity + 8; ++i) {
    core::warm_scenario_memo(config_for(i));
  }
  const auto stats = core::scenario_memo_stats();
  EXPECT_EQ(stats.workload_size, core::kScenarioMemoCapacity);
  EXPECT_EQ(stats.attack_size, core::kScenarioMemoCapacity);
  EXPECT_EQ(stats.plan_size, core::kScenarioMemoCapacity);

  // Session 0's artifacts were evicted; the session keeps its own.
  EXPECT_EQ(run_fingerprint(early.run_attempt(5)), expected);
  // A session built after the eviction rebuilds them, to the same run.
  core::ScenarioSession rebuilt(config_for(0));
  EXPECT_GT(core::scenario_memo_stats().workload_misses,
            stats.workload_misses);
  EXPECT_EQ(run_fingerprint(rebuilt.run_attempt(5)), expected);
}

TEST(SnapshotTest, MemoStatsExposeScenarioCaches) {
  const auto before = core::scenario_memo_stats();
  core::ScenarioConfig config = small_scenario();
  config.seed = 0xBEEF;  // unique per-test key so misses are guaranteed
  core::warm_scenario_memo(config);
  core::ScenarioSession session(config);  // hits the warmed caches
  const auto after = core::scenario_memo_stats();
  EXPECT_GT(after.workload_misses, before.workload_misses);
  EXPECT_GT(after.plan_misses, before.plan_misses);
  EXPECT_GT(after.workload_hits, before.workload_hits);
  EXPECT_GT(after.plan_hits, before.plan_hits);
  EXPECT_GT(after.attack_hits + after.attack_misses,
            before.attack_hits + before.attack_misses);
}

}  // namespace
}  // namespace crs
