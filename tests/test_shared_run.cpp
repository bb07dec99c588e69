// Shared runs: one simulated execution serving every attempt of a session
// that differs only in its seed (ScenarioSession::run_attempts).
//
// A session's attempts differ in how they are measured (window phase, PMU
// noise), not in what executes, unless the run reads its kernel seed. These
// tests hold the two halves of that claim: a batched attempt equals its solo
// run on every grid row under every defense preset and both engines, and a
// run that reads its seed (a planted canary, getrandom, ASLR) is served
// solo. Campaigns, which hold runs across online attempts, must produce the
// records of one solo run per attempt, traced or not.
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/corpus.hpp"
#include "core/defense_matrix.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "harness.hpp"
#include "hid/features.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "support/error.hpp"

namespace crs {
namespace {

/// Everything observable about a run, including every summary field.
std::string fingerprint(const core::ScenarioRun& run) {
  std::ostringstream os;
  os << core::windows_to_csv(run.profile.windows)
     << "attack:" << core::windows_to_csv(run.attack_windows)
     << "host:" << core::windows_to_csv(run.host_windows)
     << "stop:" << static_cast<int>(run.profile.stop)
     << " cycles:" << run.profile.cycles
     << " instructions:" << run.profile.instructions
     << " output:" << run.profile.output << " launched:" << run.attack_launched
     << " recovered:" << run.secret_recovered << " host_ipc:" << run.host_ipc;
  for (const auto& f : mitigate::summary_fields()) {
    os << ' ' << f.name << '=' << run.mitigation.*(f.member);
  }
  for (const auto& f : harden::summary_fields()) {
    os << ' ' << f.name << '=' << run.harden.*(f.member);
  }
  os << " leak:" << run.leak_stage_ran << '/' << run.leak.found_base << '/'
     << run.leak.base_delta << '/' << run.leak.canary << '/'
     << run.leak.stack_pointer;
  return os.str();
}

/// Serves every seed through run_attempts, looping over the seeds not yet
/// served; `calls` counts the shared executions.
std::vector<std::string> batched(core::ScenarioSession& session,
                                 const std::vector<std::uint64_t>& seeds,
                                 int& calls) {
  std::vector<std::string> out;
  calls = 0;
  while (out.size() < seeds.size()) {
    const auto runs = session.run_attempts(
        std::span(seeds).subspan(out.size()), session.config().perturb_params);
    ++calls;
    EXPECT_FALSE(runs.empty());
    for (const auto& run : runs) out.push_back(fingerprint(run));
  }
  return out;
}

std::vector<std::string> solo(const core::ScenarioConfig& config,
                              const std::vector<std::uint64_t>& seeds) {
  core::ScenarioSession session(config);
  std::vector<std::string> out;
  for (const std::uint64_t seed : seeds) {
    out.push_back(fingerprint(session.run_attempt(seed)));
  }
  return out;
}

struct Cell {
  std::string name;
  core::ScenarioConfig config;
};

/// Every default row of both grids under every mitigation preset and every
/// harden preset.
std::vector<Cell> every_row_and_preset() {
  core::DefenseMatrixConfig dcfg;
  dcfg.host_scale = 300;
  std::vector<core::AttackSpec> rows = core::default_attacks(dcfg);
  for (const auto& a : core::default_harden_attacks(dcfg)) rows.push_back(a);
  std::vector<Cell> cells;
  for (const auto& row : rows) {
    for (const auto& preset : mitigate::preset_names()) {
      Cell c{row.name + "/" + preset, row.scenario};
      c.config.mitigations = mitigate::preset(preset);
      cells.push_back(c);
    }
    for (const auto& preset : harden::preset_names()) {
      Cell c{row.name + "/harden-" + preset, row.scenario};
      c.config.harden = harden::preset(preset);
      cells.push_back(c);
    }
  }
  return cells;
}

TEST(SharedRun, BatchedEqualsSoloOnEveryRowAndPresetUnderBothEngines) {
  const std::vector<std::uint64_t> seeds = {0x5EED, 0x5EEE, 31, 7777};
  const std::vector<Cell> cells = every_row_and_preset();
  ASSERT_EQ(cells.size(), 6 * (mitigate::preset_names().size() +
                               harden::preset_names().size()));
  for (const auto engine :
       {sim::ExecEngine::kInterp, sim::ExecEngine::kBlocks}) {
    test::with_engine(engine, [&] {
      for (const Cell& cell : cells) {
        const std::string label =
            cell.name + " " + sim::exec_engine_name(engine);
        core::ScenarioSession session(cell.config);
        int calls = 0;
        const auto got = batched(session, seeds, calls);
        EXPECT_EQ(got, solo(cell.config, seeds)) << label;
        // The session skips the shared run only where every run reads
        // its seed up front: layout randomisation and the leak stage.
        const core::ScenarioConfig& c = cell.config;
        EXPECT_EQ(session.shares_runs(),
                  !c.leak_stage &&
                      !session.kernel_config().randomizes_layout())
            << label;
        // Only those and a canary-checking injected host read the seed;
        // every other cell shares one execution across all seeds. A guard
        // that silently stopped admitting them (or a watch that fired on
        // planting alone) would show here.
        const bool reads_seed = c.leak_stage || c.harden.aslr ||
                                (c.rop_injected && c.harden.canary);
        EXPECT_EQ(calls, reads_seed ? static_cast<int>(seeds.size()) : 1)
            << label;
      }
    });
  }
}

/// A standalone attack replaced by a mined-source program, for the
/// seed-dependence rule.
core::ScenarioConfig standalone_program(const std::string& source) {
  core::ScenarioConfig config;
  config.rop_injected = false;
  config.secret = "RULE";
  config.seed = 3;
  config.mined_attack_source = source;
  return config;
}

void expect_served_solo(const core::ScenarioConfig& config) {
  const std::vector<std::uint64_t> seeds = {11, 12, 13};
  core::ScenarioSession session(config);
  int calls = 0;
  const auto got = batched(session, seeds, calls);
  EXPECT_EQ(calls, static_cast<int>(seeds.size()));
  EXPECT_EQ(got, solo(config, seeds));
  // The runs really differ by seed, so sharing them would have been wrong.
  EXPECT_NE(got[0], got[1]);
}

TEST(SharedRun, ProgramThatReadsItsCanaryIsServedSolo) {
  expect_served_solo(standalone_program(
      "_start:\n"
      "  movi r1, __canary\n"
      "  load r4, [r1]\n"
      "  movi r1, copy\n"
      "  store [r1], r4\n"
      "  movi r2, 8\n"
      "  call print\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\n"
      "copy: .space 8\n"));
}

TEST(SharedRun, ProgramThatCallsGetrandomIsServedSolo) {
  expect_served_solo(standalone_program(
      "_start:\n"
      "  movi r1, buf\n"
      "  movi r2, 8\n"
      "  call getrandom\n"
      "  movi r1, buf\n"
      "  movi r2, 8\n"
      "  call print\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\n"
      "buf: .space 8\n"));
}

TEST(SharedRun, SessionWithAslrIsServedSolo) {
  core::ScenarioConfig config;
  config.host_scale = 300;
  config.secret = "ASLR";
  config.seed = 4;
  config.harden = harden::preset("aslr");
  core::ScenarioSession session(config);
  EXPECT_FALSE(session.shares_runs());
  expect_served_solo(config);
}

TEST(SharedRun, ProgramThatOnlyHasACanaryIsShared) {
  // The loader plants a canary in every image; planting alone must not
  // force solo runs.
  const core::ScenarioConfig config = standalone_program(
      "_start:\n"
      "  movi r1, msg\n"
      "  movi r2, 2\n"
      "  call print\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\n"
      "msg: .asciz \"hi\"\n");
  const std::vector<std::uint64_t> seeds = {11, 12, 13};
  core::ScenarioSession session(config);
  int calls = 0;
  EXPECT_EQ(batched(session, seeds, calls), solo(config, seeds));
  EXPECT_EQ(calls, 1);
}

TEST(SharedRun, StreamsCutShortByMaxWindowsStillMatchSolo) {
  // Each seed jitters its window length, so with a small max_windows the
  // streams stop the machine at different points: every call serves only
  // the seeds whose solo runs stop where the first seed's does.
  core::ScenarioConfig config;
  config.host_scale = 300;
  config.secret = "WINDOWS";
  config.seed = 6;
  config.profiler.max_windows = 5;
  const std::vector<std::uint64_t> seeds = {41, 42, 43, 44};
  core::ScenarioSession session(config);
  int calls = 0;
  EXPECT_EQ(batched(session, seeds, calls), solo(config, seeds));
  EXPECT_GT(calls, 1);
}

// --- campaigns -------------------------------------------------------------

struct Corpus {
  ml::Dataset benign;
  ml::Dataset attack;
};

const Corpus& corpus() {
  static const Corpus c = [] {
    core::CorpusConfig cc;
    cc.windows_per_class = 24;
    cc.host_scale = 300;
    cc.seed = 17;
    return Corpus{core::build_benign_corpus(cc),
                  core::build_attack_corpus(cc)};
  }();
  return c;
}

core::CampaignConfig campaign_config(bool online) {
  core::CampaignConfig cfg;
  cfg.scenario.host_scale = 300;
  cfg.scenario.secret = "CAMPAIGN";
  cfg.scenario.perturb = true;
  cfg.scenario.perturb_params.loop_count = 4;
  cfg.detector.classifier = "LR";
  cfg.detector.features = hid::paper_feature_indices();
  cfg.online_hid = online;
  cfg.dynamic_perturbation = online;
  cfg.detect_threshold = 0.5;
  cfg.attempts = 8;
  cfg.seed = 21;
  return cfg;
}

/// Every record field but wall_ms.
std::string records(const core::CampaignResult& result) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& a : result.attempts) {
    os << a.attempt << ' ' << a.detection_rate << ' ' << a.benign_fpr << ' '
       << a.detected << a.evaded << a.mutated_after << ' '
       << a.params.loop_count << '/' << a.params.delay << '/' << a.params.a
       << '/' << a.params.b << ' ' << a.secret_recovered << ' ' << a.host_ipc
       << ' ' << a.attack_window_count << ' ' << a.sim_cycles << '\n';
  }
  return os.str();
}

/// The online campaign with one solo run per attempt: run_campaign's loop
/// written out over run_attempt.
core::CampaignResult solo_online_campaign(const core::CampaignConfig& config) {
  ml::Dataset initial = corpus().benign;
  initial.append_all(corpus().attack);
  hid::HidDetector detector = hid::trained_detector(config.detector, initial);
  perturb::VariantMutator mutator(config.scenario.perturb_params,
                                  config.seed ^ 0x77);
  core::ScenarioConfig session_cfg = config.scenario;
  session_cfg.seed = config.seed;
  core::ScenarioSession session(session_cfg);
  core::CampaignResult result;
  for (int attempt = 1; attempt <= config.attempts; ++attempt) {
    const core::ScenarioRun run = session.run_attempt(
        config.seed * 7919 + static_cast<std::uint64_t>(attempt),
        mutator.current());
    core::AttemptRecord r;
    r.attempt = attempt;
    r.params = mutator.current();
    r.sim_cycles = run.profile.cycles;
    r.secret_recovered = run.secret_recovered;
    r.host_ipc = run.host_ipc;
    r.attack_window_count = run.attack_windows.size();
    r.detection_rate = detector.detection_rate(run.attack_windows);
    r.detected = r.detection_rate >= config.detect_threshold;
    r.evaded = r.detection_rate <= config.evade_threshold;
    if (!run.attack_windows.empty()) {
      ml::Dataset fresh = hid::windows_to_dataset(run.attack_windows, 1);
      fresh.append_all(hid::windows_to_dataset(run.host_windows, 0));
      detector.augment_and_refit(fresh);
    }
    if (r.detected) {
      mutator.next();
      r.mutated_after = true;
    }
    result.attempts.push_back(r);
  }
  return result;
}

/// The hid.profiler counters a campaign leaves in the registry.
struct ProfilerTotals {
  std::uint64_t runs, windows, injected_windows, executions;
};

ProfilerTotals profiler_totals() {
  auto& reg = obs::MetricsRegistry::instance();
  return {reg.counter("hid.profiler.runs").value(),
          reg.counter("hid.profiler.windows").value(),
          reg.counter("hid.profiler.injected_windows").value(),
          reg.counter("hid.profiler.executions").value()};
}

TEST(SharedRun, OnlineCampaignThatMutatesMatchesSoloRuns) {
  const core::CampaignConfig cfg = campaign_config(true);
  const Corpus& data = corpus();
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset_values();
  const core::CampaignResult result =
      core::run_campaign(cfg, data.benign, data.attack);
  const ProfilerTotals shared = profiler_totals();
  reg.reset_values();
  const core::CampaignResult solo = solo_online_campaign(cfg);
  const ProfilerTotals unshared = profiler_totals();
  EXPECT_EQ(records(result), records(solo));

  // The campaign both mutated (dropping held runs) and served attempts
  // from held runs; otherwise this test proves less than it says.
  int mutations = 0;
  for (const auto& a : result.attempts) mutations += a.mutated_after ? 1 : 0;
  EXPECT_GT(mutations, 0);
  // Runs held ahead and dropped on a mutation count nowhere: the
  // per-run metrics are those of one solo run per attempt.
  EXPECT_EQ(shared.runs, static_cast<std::uint64_t>(cfg.attempts));
  EXPECT_EQ(shared.runs, unshared.runs);
  EXPECT_EQ(shared.windows, unshared.windows);
  EXPECT_EQ(shared.injected_windows, unshared.injected_windows);
  EXPECT_EQ(unshared.executions, static_cast<std::uint64_t>(cfg.attempts));
  EXPECT_LT(shared.executions, unshared.executions);
}

TEST(SharedRun, ZeroAttemptCampaignIsRefusedBeforeAnyRun) {
  // An empty campaign fails run_campaign's precondition, offline or
  // online, before a detector is trained or a run is made.
  const Corpus& data = corpus();
  auto& reg = obs::MetricsRegistry::instance();
  for (const bool online : {false, true}) {
    core::CampaignConfig cfg = campaign_config(online);
    cfg.attempts = 0;
    reg.reset_values();
    try {
      core::run_campaign(cfg, data.benign, data.attack);
      ADD_FAILURE() << (online ? "online" : "offline") << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "campaign needs at least one attempt"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(reg.counter("hid.profiler.executions").value(), 0u);
  }
}

TEST(SharedRun, TracedAndUntracedCampaignRecordsAreEqual) {
  for (const bool online : {false, true}) {
    const core::CampaignConfig cfg = campaign_config(online);
    const std::string untraced = records(
        core::run_campaign(cfg, corpus().benign, corpus().attack));
    obs::set_tracing_enabled(true);
    const std::string traced = records(
        core::run_campaign(cfg, corpus().benign, corpus().attack));
    obs::set_tracing_enabled(false);
    EXPECT_EQ(traced, untraced) << (online ? "online" : "offline");
  }
}

TEST(SharedRun, OfflineCampaignIsOneExecution) {
  const core::CampaignConfig cfg = campaign_config(false);
  const Corpus& data = corpus();
  auto& reg = obs::MetricsRegistry::instance();
  reg.reset_values();
  const core::CampaignResult result =
      core::run_campaign(cfg, data.benign, data.attack);
  ASSERT_EQ(result.attempts.size(), static_cast<std::size_t>(cfg.attempts));
  EXPECT_EQ(reg.counter("hid.profiler.runs").value(),
            static_cast<std::uint64_t>(cfg.attempts));
  EXPECT_EQ(reg.counter("hid.profiler.executions").value(), 1u);
  // Every served attempt waited for the one shared execution.
  for (const auto& a : result.attempts) {
    EXPECT_EQ(a.wall_ms, result.attempts.front().wall_ms);
  }
}

}  // namespace
}  // namespace crs
