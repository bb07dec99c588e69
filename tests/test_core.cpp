// Integration tests of the experiment layer: scenarios, corpora, campaigns
// and the overhead measurement — scaled down so the suite stays fast, but
// exercising every code path the benches rely on.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "core/campaign.hpp"
#include "core/corpus.hpp"
#include "core/overhead.hpp"
#include "core/scenario.hpp"
#include "hid/features.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace crs::core {
namespace {

CorpusConfig small_corpus() {
  CorpusConfig cc;
  cc.windows_per_class = 250;
  cc.host_scale = 400;
  return cc;
}

const ml::Dataset& benign_corpus() {
  static const ml::Dataset d = build_benign_corpus(small_corpus());
  return d;
}

const ml::Dataset& attack_corpus() {
  static const ml::Dataset d = build_attack_corpus(small_corpus());
  return d;
}

TEST(Scenario, StandaloneSpectreRecoversSecret) {
  ScenarioConfig sc;
  sc.rop_injected = false;
  sc.seed = 3;
  const auto run = run_scenario(sc);
  EXPECT_TRUE(run.attack_launched);
  EXPECT_TRUE(run.secret_recovered);
  EXPECT_EQ(run.recovered, sc.secret);
  EXPECT_EQ(run.host_windows.size(), 0u);
  EXPECT_GT(run.attack_windows.size(), 10u);
}

TEST(Scenario, InjectedCrSpectreRecoversSecretAndHostFinishes) {
  ScenarioConfig sc;
  sc.rop_injected = true;
  sc.host_scale = 4000;
  sc.seed = 4;
  const auto run = run_scenario(sc);
  EXPECT_TRUE(run.attack_launched);
  EXPECT_TRUE(run.secret_recovered);
  EXPECT_GT(run.attack_windows.size(), 5u);
  EXPECT_GT(run.host_windows.size(), 5u);
  EXPECT_GT(run.host_ipc, 0.1);
  EXPECT_LT(run.host_ipc, 1.0);
}

TEST(Scenario, VariantsAllWorkInjected) {
  for (const auto v : attack::all_variants()) {
    ScenarioConfig sc;
    sc.variant = v;
    sc.host_scale = 2000;
    sc.seed = 5;
    const auto run = run_scenario(sc);
    EXPECT_TRUE(run.secret_recovered) << attack::variant_name(v);
  }
}

TEST(Scenario, PerturbedAttackStillWorks) {
  ScenarioConfig sc;
  sc.perturb = true;
  sc.perturb_params.delay = 500;
  sc.host_scale = 2000;
  sc.seed = 6;
  const auto run = run_scenario(sc);
  EXPECT_TRUE(run.secret_recovered);
}

TEST(Scenario, CanaryStopsInjection) {
  ScenarioConfig sc;
  sc.canary = true;
  sc.host_scale = 2000;
  sc.seed = 7;
  const auto run = run_scenario(sc);
  EXPECT_FALSE(run.attack_launched);
  EXPECT_FALSE(run.secret_recovered);
}

TEST(Scenario, AslrStopsInjection) {
  ScenarioConfig sc;
  sc.aslr = true;
  sc.host_scale = 2000;
  sc.seed = 8;
  const auto run = run_scenario(sc);
  EXPECT_FALSE(run.attack_launched);
  EXPECT_FALSE(run.secret_recovered);
}

TEST(Scenario, SeedsJitterTheTraces) {
  ScenarioConfig a;
  a.host_scale = 2000;
  a.seed = 100;
  ScenarioConfig b = a;
  b.seed = 101;
  const auto ra = run_scenario(a);
  const auto rb = run_scenario(b);
  EXPECT_NE(ra.profile.windows.size(), rb.profile.windows.size());
}

TEST(Corpus, BenignCorpusHasRequestedShape) {
  const auto& d = benign_corpus();
  EXPECT_EQ(d.size(), 250u);
  EXPECT_EQ(d.x.cols(), hid::feature_universe_size());
  for (const int y : d.y) EXPECT_EQ(y, 0);
}

TEST(Corpus, AttackCorpusHasRequestedShape) {
  const auto& d = attack_corpus();
  EXPECT_EQ(d.size(), 250u);
  for (const int y : d.y) EXPECT_EQ(y, 1);
}

TEST(Corpus, BenignBuildProfilesOnlyTheWindowsItKeeps) {
  // One thread draws one run per batch, and each run is capped at the
  // windows the corpus still lacks, so the profiler closes exactly the
  // windows the corpus keeps. An uncapped last run overshoots.
  const obs::Counter& windows =
      obs::MetricsRegistry::instance().counter("hid.profiler.windows");
  set_thread_override(1);
  for (const std::size_t target : {7u, 160u, 2000u}) {
    CorpusConfig cc;
    cc.windows_per_class = target;
    const std::uint64_t before = windows.value();
    EXPECT_EQ(build_benign_corpus(cc).size(), target);
    EXPECT_EQ(windows.value() - before, target) << "target " << target;
  }
  set_thread_override(0);
}

TEST(Corpus, BenignCorpusIsAPrefixOfALargerOne) {
  // The cap relies on it: a run's first k windows are the uncapped run's.
  CorpusConfig cc = small_corpus();
  cc.windows_per_class = 90;
  const ml::Dataset part = build_benign_corpus(cc);
  const ml::Dataset& whole = benign_corpus();
  ASSERT_EQ(part.size(), 90u);
  ASSERT_EQ(part.x.cols(), whole.x.cols());
  for (std::size_t r = 0; r < part.size(); ++r) {
    EXPECT_EQ(part.y[r], whole.y[r]);
    for (std::size_t c = 0; c < part.x.cols(); ++c) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(part.x.row(r)[c]),
                std::bit_cast<std::uint64_t>(whole.x.row(r)[c]))
          << "row " << r << " column " << c;
    }
  }
}

TEST(Corpus, ClassesAreLearnable) {
  ml::Dataset all = benign_corpus();
  all.append_all(attack_corpus());
  hid::DetectorConfig dc;
  dc.classifier = "LR";
  dc.features = hid::paper_feature_indices();
  hid::HidDetector det(dc);
  det.fit(all);
  const auto cm = det.evaluate(all);
  EXPECT_GT(cm.balanced_accuracy(), 0.9)
      << "benign and clean-Spectre corpora must be separable";
}

TEST(Campaign, OfflineHidDetectsStandaloneSpectre) {
  CampaignConfig cfg;
  cfg.scenario.rop_injected = false;
  cfg.detector.features = hid::paper_feature_indices();
  cfg.attempts = 2;
  const auto r = run_campaign(cfg, benign_corpus(), attack_corpus());
  ASSERT_EQ(r.attempts.size(), 2u);
  for (const auto& a : r.attempts) {
    EXPECT_GT(a.detection_rate, 0.8) << "attempt " << a.attempt;
    EXPECT_TRUE(a.secret_recovered);
    EXPECT_FALSE(a.evaded);
  }
  EXPECT_GT(r.mean_detection(), 0.8);
}

TEST(Campaign, OfflineHidIsEvadedByPerturbedCrSpectre) {
  CampaignConfig cfg;
  cfg.scenario.rop_injected = true;
  cfg.scenario.host_scale = 4000;
  cfg.scenario.perturb = true;
  cfg.scenario.perturb_params.delay = 1000;
  cfg.detector.features = hid::paper_feature_indices();
  cfg.attempts = 2;
  const auto r = run_campaign(cfg, benign_corpus(), attack_corpus());
  for (const auto& a : r.attempts) {
    EXPECT_LT(a.detection_rate, 0.55) << "attempt " << a.attempt;
    EXPECT_TRUE(a.evaded);
    EXPECT_TRUE(a.secret_recovered);
  }
}

TEST(Campaign, OnlineHidRecoversAndAttackerMutates) {
  CampaignConfig cfg;
  cfg.scenario.rop_injected = true;
  cfg.scenario.host_scale = 4000;
  cfg.scenario.perturb = true;
  cfg.scenario.perturb_params.delay = 2000;
  cfg.detector.features = hid::paper_feature_indices();
  cfg.online_hid = true;
  cfg.dynamic_perturbation = true;
  cfg.attempts = 4;
  const auto r = run_campaign(cfg, benign_corpus(), attack_corpus());
  // Attempt 1 evades; the retrained HID then detects the unchanged variant,
  // which triggers a mutation.
  EXPECT_TRUE(r.attempts[0].evaded);
  bool any_detected = false, any_mutation = false;
  for (const auto& a : r.attempts) {
    any_detected |= a.detected;
    any_mutation |= a.mutated_after;
  }
  EXPECT_TRUE(any_detected);
  EXPECT_TRUE(any_mutation);
  EXPECT_LT(r.min_detection(), 0.3);
  EXPECT_GT(r.max_detection(), 0.8);
}

TEST(Campaign, RecordsCarryVariantParameters) {
  CampaignConfig cfg;
  cfg.scenario.rop_injected = false;
  cfg.detector.features = hid::paper_feature_indices();
  cfg.attempts = 1;
  const auto r = run_campaign(cfg, benign_corpus(), attack_corpus());
  EXPECT_EQ(r.attempts[0].attempt, 1);
  EXPECT_FALSE(r.attempts[0].params.describe().empty());
}

TEST(Overhead, InjectionCostIsSmall) {
  OverheadConfig cfg;
  cfg.repeats = 2;
  // Whole-process IPC semantics: the host must dwarf the attack (the
  // paper's regime) for the ~1% overhead numbers to be meaningful.
  const auto row = measure_overhead("Math", "basicmath", 60000, cfg);
  EXPECT_GT(row.original_ipc, 0.1);
  EXPECT_GT(row.offline_ipc, 0.1);
  EXPECT_GT(row.online_ipc, 0.1);
  // The paper's claim: negligible overhead (~1%). Allow a loose band.
  EXPECT_LT(std::abs(row.offline_overhead_pct), 8.0);
  EXPECT_LT(std::abs(row.online_overhead_pct), 8.0);
}

TEST(Overhead, RowValidation) {
  OverheadConfig cfg;
  cfg.repeats = 0;
  EXPECT_THROW(measure_overhead("x", "basicmath", 100, cfg), Error);
}

}  // namespace
}  // namespace crs::core
