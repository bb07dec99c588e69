#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <sstream>

#include "attack/spectre.hpp"
#include "core/campaign.hpp"
#include "core/corpus.hpp"
#include "harness.hpp"
#include "hid/detector.hpp"
#include "hid/features.hpp"
#include "hid/profiler.hpp"
#include "ml/mlp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "workloads/workloads.hpp"

namespace crs::hid {
namespace {

using sim::Event;
using sim::StopReason;

ProfileResult profile_workload(const std::string& name, std::uint64_t scale,
                               const ProfilerConfig& config = {}) {
  sim::Machine machine;
  sim::Kernel kernel(machine);
  workloads::WorkloadOptions opt;
  opt.scale = scale;
  kernel.register_binary("/bin/w", workloads::build_workload(name, opt));
  return profile_run_strings(kernel, "/bin/w", {name, "input"}, config);
}

TEST(Profiler, WindowsCoverTheWholeRun) {
  ProfilerConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.background_intensity = 0.0;
  const auto r = profile_workload("basicmath", 2000, cfg);
  EXPECT_EQ(r.stop, StopReason::kHalted);
  EXPECT_GT(r.windows.size(), 10u);
  std::uint64_t total_instr = 0;
  for (const auto& w : r.windows) {
    total_instr += w.delta[static_cast<std::size_t>(Event::kInstructions)];
  }
  EXPECT_EQ(total_instr, r.instructions);
}

TEST(Profiler, WindowLengthsAreRespected) {
  ProfilerConfig cfg;
  cfg.window_cycles = 10'000;
  cfg.noise_sigma = 0.0;
  cfg.background_intensity = 0.0;
  const auto r = profile_workload("bitcount", 5000, cfg);
  ASSERT_GT(r.windows.size(), 3u);
  // All but the last window must be close to the configured length.
  for (std::size_t i = 0; i + 1 < r.windows.size(); ++i) {
    const auto cyc =
        r.windows[i].delta[static_cast<std::size_t>(Event::kCycles)];
    EXPECT_GE(cyc, 10'000u);
    EXPECT_LT(cyc, 11'500u) << "window " << i;
  }
}

TEST(Profiler, NoiselessModeIsExactAndDeterministic) {
  ProfilerConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.background_intensity = 0.0;
  const auto a = profile_workload("crc32", 20, cfg);
  const auto b = profile_workload("crc32", 20, cfg);
  ASSERT_EQ(a.windows.size(), b.windows.size());
  for (std::size_t i = 0; i < a.windows.size(); ++i) {
    EXPECT_EQ(a.windows[i].delta, b.windows[i].delta);
    EXPECT_EQ(a.windows[i].delta, a.windows[i].true_delta);
  }
}

TEST(Profiler, MeasurementNoisePerturbsButPreservesScale) {
  ProfilerConfig noisy;
  noisy.noise_sigma = 0.10;
  noisy.background_intensity = 0.0;
  const auto r = profile_workload("crc32", 20, noisy);
  std::size_t differing = 0;
  for (const auto& w : r.windows) {
    const auto t = w.true_delta[static_cast<std::size_t>(Event::kInstructions)];
    const auto m = w.delta[static_cast<std::size_t>(Event::kInstructions)];
    if (t != m) ++differing;
    EXPECT_NEAR(static_cast<double>(m), static_cast<double>(t),
                0.6 * static_cast<double>(t) + 10);
  }
  EXPECT_GT(differing, r.windows.size() / 2);
}

TEST(Profiler, BackgroundNoiseAddsFloorToRareEvents) {
  ProfilerConfig cfg;
  cfg.noise_sigma = 0.0;
  cfg.background_intensity = 1.0;
  const auto r = profile_workload("bitcount", 5000, cfg);
  // bitcount itself almost never misses; the background floor must show.
  std::uint64_t true_misses = 0, measured = 0;
  for (const auto& w : r.windows) {
    true_misses += w.true_delta[static_cast<std::size_t>(Event::kL1dMisses)];
    measured += w.delta[static_cast<std::size_t>(Event::kL1dMisses)];
  }
  EXPECT_GT(measured, true_misses);
}

TEST(Profiler, NoiseSeedControlsDraws) {
  ProfilerConfig a;
  a.noise_seed = 1;
  ProfilerConfig b;
  b.noise_seed = 2;
  const auto ra = profile_workload("crc32", 10, a);
  const auto rb = profile_workload("crc32", 10, b);
  ASSERT_EQ(ra.windows.size(), rb.windows.size());
  EXPECT_NE(ra.windows[0].delta, rb.windows[0].delta);
}

TEST(Profiler, GroundTruthFlagsInjectedWindows) {
  // A host that execve's a child mid-run: windows during the child must be
  // flagged, windows before/after must not.
  test::SimHarness h;
  h.add_program(
      "_start:\n"
      "  movi r13, 40000\n"
      "w1: addi r4, r4, 1\n"
      "  addi r13, r13, -1\n"
      "  bnez r13, w1\n"
      "  movi r0, 2\n"
      "  movi r1, path\n"
      "  syscall\n"
      "  movi r13, 40000\n"
      "w2: addi r4, r4, 1\n"
      "  addi r13, r13, -1\n"
      "  bnez r13, w2\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\npath: .asciz \"/bin/child\"\n",
      "/bin/host");
  h.add_program(
      "_start:\n"
      "  movi r13, 60000\n"
      "c1: addi r4, r4, 1\n"
      "  addi r13, r13, -1\n"
      "  bnez r13, c1\n"
      "  movi r1, 0\n"
      "  call exit_\n",
      "/bin/child", 0x200000);
  ProfilerConfig cfg;
  cfg.window_cycles = 10'000;
  const auto r = profile_run_strings(h.kernel(), "/bin/host", {}, cfg);
  EXPECT_EQ(r.stop, StopReason::kHalted);
  const std::size_t injected = r.injected_window_count();
  EXPECT_GT(injected, 2u);
  EXPECT_LT(injected, r.windows.size());
  EXPECT_FALSE(r.windows.front().injected);
  EXPECT_FALSE(r.windows.back().injected);
}

/// Everything profile_run reports, serialised for exact comparison.
std::string profile_fingerprint(const ProfileResult& r) {
  std::ostringstream os;
  os << "stop:" << static_cast<int>(r.stop) << " cycles:" << r.cycles
     << " instructions:" << r.instructions << " output:" << r.output << '\n';
  for (const auto& w : r.windows) {
    os << w.injected;
    for (std::size_t e = 0; e < sim::kEventCount; ++e) {
      os << ' ' << w.delta[e] << '/' << w.true_delta[e];
    }
    os << '\n';
  }
  return os.str();
}

TEST(Profiler, InstructionBudgetBoundsTheRunNotEachWindow) {
  workloads::WorkloadOptions opt;
  opt.scale = 2000;
  const sim::Program host = workloads::build_workload("basicmath", opt);
  for (const auto engine :
       {sim::ExecEngine::kInterp, sim::ExecEngine::kBlocks}) {
    test::with_engine(engine, [&] {
      sim::Machine machine;
      sim::Kernel kernel(machine);
      kernel.register_binary("/bin/w", host);
      ProfilerConfig cfg;
      cfg.window_cycles = 1000;
      cfg.max_instructions = 50'000;
      const auto r =
          profile_run_strings(kernel, "/bin/w", {"basicmath", "input"}, cfg);
      EXPECT_EQ(r.stop, StopReason::kInstructionLimit)
          << sim::exec_engine_name(engine);
      EXPECT_EQ(r.instructions, 50'000u) << sim::exec_engine_name(engine);
      EXPECT_EQ(machine.cpu().retired(), 50'000u);
    });
  }
}

/// The execve host of GroundTruthFlagsInjectedWindows, with a child that
/// writes output, so stream windows straddle injected edges.
void add_execve_pair(test::SimHarness& h) {
  h.add_program(
      "_start:\n"
      "  movi r13, 30000\n"
      "w1: addi r4, r4, 1\n"
      "  addi r13, r13, -1\n"
      "  bnez r13, w1\n"
      "  movi r0, 2\n"
      "  movi r1, path\n"
      "  syscall\n"
      "  movi r13, 30000\n"
      "w2: addi r4, r4, 1\n"
      "  addi r13, r13, -1\n"
      "  bnez r13, w2\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\npath: .asciz \"/bin/child\"\n",
      "/bin/host");
  h.add_program(
      "_start:\n"
      "  movi r13, 20000\n"
      "c1: addi r4, r4, 1\n"
      "  addi r13, r13, -1\n"
      "  bnez r13, c1\n"
      "  movi r1, msg\n"
      "  movi r2, 2\n"
      "  call print\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\nmsg: .asciz \"ok\"\n",
      "/bin/child", 0x200000);
}

std::string solo_fingerprint(const ProfilerConfig& cfg) {
  test::SimHarness h;
  add_execve_pair(h);
  return profile_fingerprint(
      profile_run_strings(h.kernel(), "/bin/host", {}, cfg));
}

std::vector<ProfilerConfig> three_streams() {
  std::vector<ProfilerConfig> configs(3);
  configs[0].window_cycles = 10'000;
  configs[1].window_cycles = 7'001;
  configs[1].noise_seed = 2;
  configs[2].window_cycles = 12'345;
  configs[2].noise_seed = 3;
  return configs;
}

TEST(Profiler, StreamsOfOneRunEqualTheirSoloRuns) {
  for (const auto engine :
       {sim::ExecEngine::kInterp, sim::ExecEngine::kBlocks}) {
    test::with_engine(engine, [&] {
      const std::vector<ProfilerConfig> configs = three_streams();
      test::SimHarness h;
      add_execve_pair(h);
      const std::vector<ProfileResult> runs =
          profile_runs(h.kernel(), "/bin/host", {}, configs);
      ASSERT_EQ(runs.size(), configs.size());
      for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(profile_fingerprint(runs[i]), solo_fingerprint(configs[i]))
            << "stream " << i << ' ' << sim::exec_engine_name(engine);
      }
      EXPECT_GT(runs[0].injected_window_count(), 0u);
    });
  }
}

TEST(Profiler, SharedRunLeavesPerRunMetricsToTheCaller) {
  auto& reg = obs::MetricsRegistry::instance();
  const auto counted = [&](const char* name) {
    return reg.counter(name).value();
  };
  reg.reset_values();
  test::SimHarness h;
  add_execve_pair(h);
  const std::vector<ProfileResult> runs =
      profile_runs(h.kernel(), "/bin/host", {}, three_streams());
  ASSERT_EQ(runs.size(), 3u);
  // One execution and no runs: a result counts once its caller uses it.
  EXPECT_EQ(counted("hid.profiler.executions"), 1u);
  EXPECT_EQ(counted("hid.profiler.runs"), 0u);
  EXPECT_EQ(counted("hid.profiler.windows"), 0u);
  record_run_metrics(runs[1]);
  EXPECT_EQ(counted("hid.profiler.runs"), 1u);
  EXPECT_EQ(counted("hid.profiler.windows"), runs[1].windows.size());
  EXPECT_EQ(counted("hid.profiler.injected_windows"),
            runs[1].injected_window_count());

  // profile_run records its own result.
  reg.reset_values();
  test::SimHarness g;
  add_execve_pair(g);
  const ProfileResult solo =
      profile_run_strings(g.kernel(), "/bin/host", {}, three_streams()[1]);
  EXPECT_EQ(counted("hid.profiler.executions"), 1u);
  EXPECT_EQ(counted("hid.profiler.runs"), 1u);
  EXPECT_EQ(counted("hid.profiler.windows"), solo.windows.size());
}

TEST(Profiler, StreamThatStopsElsewhereThanStreamZeroIsNotServed) {
  std::vector<ProfilerConfig> configs = three_streams();
  configs[1].max_windows = 3;  // its solo run stops the machine early
  test::SimHarness h;
  add_execve_pair(h);
  std::vector<ProfileResult> runs =
      profile_runs(h.kernel(), "/bin/host", {}, configs);
  ASSERT_EQ(runs.size(), 1u);  // a prefix: stream 2 goes with stream 1
  EXPECT_EQ(profile_fingerprint(runs[0]), solo_fingerprint(configs[0]));

  // Stream 0 stopping early ends the run; a stream that stops with it is
  // served, one that would run on is not.
  std::vector<ProfilerConfig> early(3);
  early[0].window_cycles = 10'000;
  early[0].max_windows = 3;
  early[1] = early[0];
  early[1].noise_seed = 9;
  early[2].window_cycles = 10'000;
  test::SimHarness g;
  add_execve_pair(g);
  runs = profile_runs(g.kernel(), "/bin/host", {}, early);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].windows.size(), 3u);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(profile_fingerprint(runs[i]), solo_fingerprint(early[i]))
        << "stream " << i;
  }
}

TEST(Profiler, SeedDependentRunServesStreamZeroOnly) {
  test::SimHarness h;
  h.add_program(
      "_start:\n"
      "  movi r13, 20000\n"
      "l: addi r13, r13, -1\n"
      "  bnez r13, l\n"
      "  movi r1, buf\n"
      "  movi r2, 8\n"
      "  call getrandom\n"
      "  movi r1, buf\n"
      "  movi r2, 8\n"
      "  call print\n"
      "  movi r1, 0\n"
      "  call exit_\n"
      ".data\nbuf: .space 8\n",
      "/bin/t");
  const std::vector<ProfileResult> runs =
      profile_runs(h.kernel(), "/bin/t", {}, three_streams());
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].output.size(), 8u);
}

TEST(Features, UniverseCoversEventsAndAggregates) {
  EXPECT_EQ(feature_universe_size(), sim::kEventCount + 2);
  EXPECT_EQ(feature_name(0), "cycles");
  EXPECT_EQ(feature_name(sim::kEventCount), "total_cache_misses");
  EXPECT_EQ(feature_name(sim::kEventCount + 1), "total_cache_accesses");
  EXPECT_THROW(feature_name(feature_universe_size()), Error);
}

TEST(Features, VectorNormalisesPerKiloInstruction) {
  sim::PmuSnapshot delta{};
  delta[static_cast<std::size_t>(Event::kInstructions)] = 2000;
  delta[static_cast<std::size_t>(Event::kL1dMisses)] = 50;
  delta[static_cast<std::size_t>(Event::kCycles)] = 8000;
  const auto f = feature_vector(delta);
  EXPECT_DOUBLE_EQ(f[static_cast<std::size_t>(Event::kL1dMisses)], 25.0);
  EXPECT_DOUBLE_EQ(f[static_cast<std::size_t>(Event::kCycles)], 4000.0);
  EXPECT_DOUBLE_EQ(f[static_cast<std::size_t>(Event::kInstructions)], 2000.0);
}

TEST(Features, PaperSixAreDistinctAndValid) {
  const auto idx = paper_feature_indices();
  ASSERT_EQ(idx.size(), 6u);
  for (const auto i : idx) EXPECT_LT(i, feature_universe_size());
  EXPECT_EQ(feature_name(idx[0]), "total_cache_misses");
  EXPECT_EQ(feature_name(idx[3]), "branch_mispredicts");
}

TEST(Features, VisiblePoolExcludesForensicCounters) {
  const auto vis = detector_visible_features();
  for (const auto i : vis) {
    const auto n = feature_name(i);
    EXPECT_NE(n, "clflushes");
    EXPECT_NE(n, "spec_loads");
    EXPECT_NE(n, "rsb_mispredicts");
  }
  // All paper-6 features remain visible.
  for (const auto p : paper_feature_indices()) {
    EXPECT_NE(std::find(vis.begin(), vis.end(), p), vis.end());
  }
}

// --- detector ---------------------------------------------------------------

ml::Dataset labelled_windows(const std::string& app, int label,
                             std::uint64_t scale) {
  const auto r = profile_workload(app, scale);
  return windows_to_dataset(r.windows, label);
}

TEST(Detector, SeparatesDistinctWorkloads) {
  // Stand-in for benign-vs-attack: two very different apps.
  ml::Dataset train = labelled_windows("bitcount", 0, 4000);
  train.append_all(labelled_windows("pointer_chase", 1, 60));
  DetectorConfig cfg;
  cfg.classifier = "LR";
  cfg.feature_count = 4;
  HidDetector det(cfg);
  det.fit(train);
  EXPECT_TRUE(det.fitted());
  EXPECT_EQ(det.selected_features().size(), 4u);

  const auto bc = profile_workload("bitcount", 4000);
  const auto pc = profile_workload("pointer_chase", 60);
  EXPECT_LT(det.detection_rate(bc.windows), 0.2);
  EXPECT_GT(det.detection_rate(pc.windows), 0.8);
}

TEST(Detector, ExplicitFeatureListIsHonoured) {
  ml::Dataset train = labelled_windows("bitcount", 0, 2000);
  train.append_all(labelled_windows("stream", 1, 60));
  DetectorConfig cfg;
  cfg.features = paper_feature_indices();
  HidDetector det(cfg);
  det.fit(train);
  EXPECT_EQ(det.selected_features(), paper_feature_indices());
}

TEST(Detector, EvaluateProducesConfusion) {
  ml::Dataset train = labelled_windows("bitcount", 0, 2000);
  train.append_all(labelled_windows("pointer_chase", 1, 60));
  DetectorConfig cfg;
  cfg.classifier = "SVM";
  HidDetector det(cfg);
  det.fit(train);
  const auto cm = det.evaluate(train);
  EXPECT_GT(cm.balanced_accuracy(), 0.9);
}

TEST(Detector, IncrementalUpdateAdaptsWithoutCollapse) {
  ml::Dataset train = labelled_windows("bitcount", 0, 2000);
  train.append_all(labelled_windows("basicmath", 0, 600));
  train.append_all(labelled_windows("pointer_chase", 1, 60));
  DetectorConfig cfg;
  cfg.classifier = "MLP";
  cfg.online_mode = OnlineMode::kIncremental;
  // Rich feature set so the novel class is distinguishable from the old
  // benign apps at all (Fisher top-4 for the initial task need not be).
  cfg.features = paper_feature_indices();
  HidDetector det(cfg);
  det.fit(train);

  // New attack behaviour: compute-like windows (near the benign side at
  // first) get labelled attack.
  const auto novel = profile_workload("sha", 200);
  EXPECT_LT(det.detection_rate(novel.windows), 0.5) << "novel evades at first";
  // As in the campaign, each online batch carries the newly labelled
  // attack windows together with freshly profiled benign windows.
  const auto benign = profile_workload("bitcount", 2000);
  for (int i = 0; i < 3; ++i) {
    ml::Dataset batch = windows_to_dataset(novel.windows, 1);
    batch.append_all(windows_to_dataset(benign.windows, 0));
    det.augment_and_refit(batch);
  }
  EXPECT_GT(det.detection_rate(novel.windows), 0.8) << "update must adapt";
  // The benign view must not collapse wholesale. Some drift is inherent to
  // warm-start online updates (that imperfection is exactly what the
  // moving-target attack exploits — see the campaign-level tests for the
  // realistic FPR, which stays near zero there).
  EXPECT_LT(det.detection_rate(benign.windows), 0.95);
  // A full retrain from the accumulated dataset restores clean separation.
  DetectorConfig full = cfg;
  full.online_mode = OnlineMode::kFullRetrain;
  HidDetector fresh(full);
  fresh.fit(train);
  ml::Dataset batch = windows_to_dataset(novel.windows, 1);
  batch.append_all(windows_to_dataset(benign.windows, 0));
  fresh.augment_and_refit(batch);
  EXPECT_LT(fresh.detection_rate(benign.windows), 0.2);
  EXPECT_GT(fresh.detection_rate(novel.windows), 0.8);
}

TEST(Detector, FullRetrainModeAlsoAdapts) {
  ml::Dataset train = labelled_windows("bitcount", 0, 2000);
  train.append_all(labelled_windows("pointer_chase", 1, 60));
  DetectorConfig cfg;
  cfg.classifier = "LR";
  cfg.online_mode = OnlineMode::kFullRetrain;
  HidDetector det(cfg);
  det.fit(train);
  const std::size_t before = det.training_size();
  const auto novel = profile_workload("stream", 60);
  det.augment_and_refit(windows_to_dataset(novel.windows, 1));
  EXPECT_GT(det.training_size(), before);
  EXPECT_GT(det.detection_rate(novel.windows), 0.8);
}

TEST(Detector, StatsCountRetrainEventsInIncrementalMode) {
  ml::Dataset train = labelled_windows("bitcount", 0, 2000);
  train.append_all(labelled_windows("pointer_chase", 1, 60));
  DetectorConfig cfg;
  cfg.classifier = "MLP";
  cfg.online_mode = OnlineMode::kIncremental;
  cfg.features = paper_feature_indices();
  HidDetector det(cfg);
  EXPECT_EQ(det.stats().retrain_events(), 0u);

  det.fit(train);
  // The initial fit is one full (re)train; nothing incremental yet.
  EXPECT_EQ(det.stats().full_refits, 1u);
  EXPECT_EQ(det.stats().incremental_updates, 0u);
  EXPECT_EQ(det.stats().augmented_rows, 0u);
  EXPECT_EQ(det.stats().retrain_events(), 1u);

  const auto novel = profile_workload("stream", 60);
  const auto batch = windows_to_dataset(novel.windows, 1);
  for (std::uint64_t i = 1; i <= 3; ++i) {
    det.augment_and_refit(batch);
    EXPECT_EQ(det.stats().full_refits, 1u) << "incremental mode never refits";
    EXPECT_EQ(det.stats().incremental_updates, i);
    EXPECT_EQ(det.stats().augmented_rows, i * batch.size());
    EXPECT_EQ(det.stats().retrain_events(), 1u + i);
  }
}

TEST(Detector, StatsCountRetrainEventsInFullRetrainMode) {
  ml::Dataset train = labelled_windows("bitcount", 0, 2000);
  train.append_all(labelled_windows("pointer_chase", 1, 60));
  DetectorConfig cfg;
  cfg.classifier = "LR";
  cfg.online_mode = OnlineMode::kFullRetrain;
  HidDetector det(cfg);
  det.fit(train);
  const auto novel = profile_workload("stream", 60);
  det.augment_and_refit(windows_to_dataset(novel.windows, 1));
  det.augment_and_refit(windows_to_dataset(novel.windows, 1));
  // fit() plus two full retrains, no incremental updates.
  EXPECT_EQ(det.stats().full_refits, 3u);
  EXPECT_EQ(det.stats().incremental_updates, 0u);
  EXPECT_EQ(det.stats().augmented_rows, 2u * novel.windows.size());
  EXPECT_EQ(det.stats().retrain_events(), 3u);
}

TEST(Detector, UsageErrors) {
  DetectorConfig cfg;
  HidDetector det(cfg);
  sim::PmuSnapshot s{};
  EXPECT_THROW(det.predict(s), Error);
  EXPECT_THROW(det.augment_and_refit(ml::Dataset{}), Error);
  EXPECT_THROW(det.fit(ml::Dataset{}), Error);
}

// --- memoized training (trained_detector) ----------------------------------

ml::Dataset memo_training_set() {
  ml::Dataset train = labelled_windows("bitcount", 0, 2000);
  train.append_all(labelled_windows("pointer_chase", 1, 60));
  return train;
}

void expect_same_detector(const HidDetector& a, const HidDetector& b,
                          const ml::Dataset& test,
                          const std::vector<WindowSample>& windows,
                          const std::string& what) {
  EXPECT_EQ(a.selected_features(), b.selected_features()) << what;
  const auto ca = a.evaluate(test);
  const auto cb = b.evaluate(test);
  EXPECT_EQ(ca.tp, cb.tp) << what;
  EXPECT_EQ(ca.tn, cb.tn) << what;
  EXPECT_EQ(ca.fp, cb.fp) << what;
  EXPECT_EQ(ca.fn, cb.fn) << what;
  EXPECT_EQ(a.detection_rate(windows), b.detection_rate(windows)) << what;
  EXPECT_EQ(a.stats().full_refits, b.stats().full_refits) << what;
  EXPECT_EQ(a.stats().incremental_updates, b.stats().incremental_updates)
      << what;
  EXPECT_EQ(a.stats().augmented_rows, b.stats().augmented_rows) << what;
  EXPECT_EQ(a.training_size(), b.training_size()) << what;
}

TEST(DetectorMemo, HitEqualsFreshFitForEveryZooKind) {
  const ml::Dataset train = memo_training_set();
  const auto novel = profile_workload("sha", 200);
  const auto benign = profile_workload("bitcount", 2000);
  ml::Dataset batch = windows_to_dataset(novel.windows, 1);
  batch.append_all(windows_to_dataset(benign.windows, 0));

  for (const std::string& kind : ml::classifier_zoo()) {
    DetectorConfig cfg;
    cfg.classifier = kind;
    cfg.features = paper_feature_indices();
    cfg.seed = 0xC0FFEE;  // a key no other test uses: the first call misses
    HidDetector fresh(cfg);
    fresh.fit(train);

    const auto before = detector_memo_stats();
    const HidDetector cold = trained_detector(cfg, train);
    HidDetector hit = trained_detector(cfg, train);
    const auto after = detector_memo_stats();
    EXPECT_EQ(after.misses, before.misses + 1) << kind;
    EXPECT_EQ(after.hits, before.hits + 1) << kind;
    expect_same_detector(hit, fresh, train, novel.windows, kind + " hit");
    expect_same_detector(cold, fresh, train, novel.windows, kind + " cold");

    // The hit is the caller's own detector: online updates track a fresh
    // fit's step for step and never reach the cached entry.
    for (int step = 1; step <= 3; ++step) {
      fresh.augment_and_refit(batch);
      hit.augment_and_refit(batch);
      expect_same_detector(hit, fresh, train, novel.windows,
                           kind + " step " + std::to_string(step));
    }
    expect_same_detector(trained_detector(cfg, train), cold, train,
                         novel.windows, kind + " after updates");
  }
}

TEST(DetectorMemo, ChangedRowOrConfigFieldMisses) {
  const ml::Dataset train = memo_training_set();
  DetectorConfig base;
  base.classifier = "LR";
  base.seed = 0xBADC0DE;
  trained_detector(base, train);
  const auto warm = detector_memo_stats();
  trained_detector(base, train);
  EXPECT_EQ(detector_memo_stats().hits, warm.hits + 1) << "unchanged hits";

  const auto expect_miss = [&](const DetectorConfig& cfg,
                               const ml::Dataset& rows,
                               const std::string& what) {
    const auto before = detector_memo_stats();
    const HidDetector got = trained_detector(cfg, rows);
    EXPECT_EQ(detector_memo_stats().misses, before.misses + 1) << what;
    HidDetector fresh(cfg);
    fresh.fit(rows);
    expect_same_detector(got, fresh, rows, {}, what);
  };

  ml::Dataset nudged = train;
  nudged.x.at(0, 0) = std::nextafter(nudged.x.at(0, 0), 1e300);
  expect_miss(base, nudged, "one value one ulp off");
  ml::Dataset relabelled = train;
  relabelled.y[0] = 1 - relabelled.y[0];
  expect_miss(base, relabelled, "one label flipped");

  using Change = std::function<void(DetectorConfig&)>;
  const std::vector<std::pair<std::string, Change>> fields = {
      {"classifier", [](DetectorConfig& c) { c.classifier = "SVM"; }},
      {"features", [](DetectorConfig& c) { c.features = {0, 1}; }},
      {"feature_count", [](DetectorConfig& c) { c.feature_count = 3; }},
      {"candidate_features",
       [](DetectorConfig& c) {
         c.candidate_features = detector_visible_features();
         c.candidate_features.pop_back();
       }},
      {"online_mode",
       [](DetectorConfig& c) { c.online_mode = OnlineMode::kFullRetrain; }},
      {"seed", [](DetectorConfig& c) { c.seed += 1; }},
  };
  for (const auto& [name, change] : fields) {
    DetectorConfig cfg = base;
    change(cfg);
    expect_miss(cfg, train, name);
  }
}

TEST(DetectorMemo, BoundedAndHandedOutDetectorsSurviveEviction) {
  const ml::Dataset train = memo_training_set();
  const auto windows = profile_workload("pointer_chase", 60).windows;
  DetectorConfig cfg;
  cfg.classifier = "LR";
  cfg.seed = 0x5EED0000;
  const HidDetector first = trained_detector(cfg, train);
  HidDetector reference(cfg);
  reference.fit(train);

  for (std::uint64_t i = 1; i <= kDetectorMemoCapacity + 2; ++i) {
    DetectorConfig other = cfg;
    other.seed = cfg.seed + i;
    trained_detector(other, train);
    EXPECT_LE(detector_memo_stats().size, kDetectorMemoCapacity);
  }
  EXPECT_EQ(detector_memo_stats().size, kDetectorMemoCapacity);
  // `first`'s entry was the least recently used, so it is gone ...
  const auto before = detector_memo_stats();
  trained_detector(cfg, train);
  EXPECT_EQ(detector_memo_stats().misses, before.misses + 1);
  // ... while the detector handed out before the eviction still works.
  expect_same_detector(first, reference, train, windows, "evicted");
}

TEST(DetectorMemo, ConcurrentRequestsMatchFreshFits) {
  // Threads racing on cold and warm keys (crs_serve shards and the online
  // campaign workers do) must each get a detector equal to a fresh fit.
  const ml::Dataset train = memo_training_set();
  const auto windows = profile_workload("pointer_chase", 60).windows;
  const auto config_for = [](std::size_t i) {
    DetectorConfig cfg;
    cfg.classifier = i % 2 == 0 ? "LR" : "SVM";
    cfg.seed = 0xD00D + i % 3;
    return cfg;
  };
  std::vector<HidDetector> fresh;
  for (std::size_t i = 0; i < 6; ++i) {
    fresh.emplace_back(config_for(i));
    fresh.back().fit(train);
  }
  ThreadPool pool(4);
  const auto rates = parallel_map<double>(pool, 24, [&](std::size_t i) {
    return trained_detector(config_for(i % 6), train).detection_rate(windows);
  });
  for (std::size_t i = 0; i < rates.size(); ++i) {
    EXPECT_EQ(rates[i], fresh[i % 6].detection_rate(windows)) << i;
  }
  EXPECT_LE(detector_memo_stats().size, kDetectorMemoCapacity);
}

// Every field of every record except wall_ms, doubles at full precision.
std::string exact_records(const core::CampaignResult& result) {
  std::ostringstream os;
  os.precision(17);
  for (const auto& a : result.attempts) {
    os << a.attempt << ',' << a.detection_rate << ',' << a.benign_fpr << ','
       << a.detected << a.evaded << a.mutated_after << a.secret_recovered
       << ',' << a.host_ipc << ',' << a.attack_window_count << ','
       << a.sim_cycles << ',' << a.params.describe() << '\n';
  }
  return os.str();
}

TEST(DetectorMemo, CampaignsColdAndWarmAreByteIdentical) {
  core::CorpusConfig cc;
  cc.windows_per_class = 24;
  cc.host_scale = 300;
  cc.seed = 0xFACADE;  // fresh corpus: the first campaign's fit is cold
  const auto benign = core::build_benign_corpus(cc);
  const auto attack = core::build_attack_corpus(cc);

  for (const bool online : {false, true}) {
    core::CampaignConfig cfg;
    cfg.scenario.rop_injected = true;
    cfg.scenario.perturb = true;
    cfg.scenario.perturb_params.loop_count = 10;
    // Distinct classifiers keep the two campaigns' detectors apart, so each
    // campaign's first run is a cold fit.
    cfg.detector.classifier = online ? "LR" : "MLP";
    cfg.detector.features = paper_feature_indices();
    cfg.online_hid = online;
    cfg.dynamic_perturbation = online;
    cfg.attempts = 3;
    cfg.seed = 77;

    std::string ref[3];
    for (const bool warm : {false, true}) {
      obs::TraceSink::instance().clear();
      obs::reset_lane_allocator();
      obs::MetricsRegistry::instance().reset_values();
      obs::set_tracing_enabled(true);
      const auto before = detector_memo_stats();
      const auto result = core::run_campaign(cfg, benign, attack, &benign);
      const auto after = detector_memo_stats();
      obs::set_tracing_enabled(false);

      EXPECT_EQ(after.hits - before.hits, warm ? 1u : 0u);
      EXPECT_EQ(after.misses - before.misses, warm ? 0u : 1u);
      const std::string got[3] = {exact_records(result),
                                  obs::TraceSink::instance().csv(),
                                  obs::MetricsRegistry::instance().csv()};
      EXPECT_NE(got[1].find("hid.detector.retrain"), std::string::npos);
      EXPECT_NE(got[2].find("hid.detector.full_refits"), std::string::npos);
      for (int k = 0; k < 3; ++k) {
        if (!warm) {
          ref[k] = got[k];
        } else {
          // Not EXPECT_EQ: gtest's line diff of two large CSVs is quadratic
          // in memory.
          EXPECT_TRUE(got[k] == ref[k])
              << (online ? "online" : "offline") << " output " << k
              << " differs warm (" << got[k].size() << " bytes) vs cold ("
              << ref[k].size() << " bytes)";
        }
      }
    }
  }
}

}  // namespace
}  // namespace crs::hid
