// Determinism contract of the parallel experiment runner: identical results
// for any thread count, plus the pool/seed/thread-resolution primitives.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/corpus.hpp"
#include "core/scenario.hpp"
#include "hid/features.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace crs {
namespace {

TEST(ThreadPool, MapPreservesIndexOrderForAnyThreadCount) {
  const auto square = [](std::size_t i) { return i * i; };
  std::vector<std::size_t> expected;
  for (std::size_t i = 0; i < 100; ++i) expected.push_back(i * i);
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    EXPECT_EQ(parallel_map<std::size_t>(pool, 100, square), expected)
        << "threads=" << threads;
  }
}

TEST(ThreadPool, EmptyAndSingleItemWork) {
  ThreadPool pool(4);
  EXPECT_TRUE(parallel_map<int>(pool, 0, [](std::size_t) { return 1; }).empty());
  EXPECT_EQ(parallel_map<int>(pool, 1, [](std::size_t) { return 7; }),
            std::vector<int>{7});
}

TEST(ThreadPool, PropagatesFirstException) {
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(pool.for_each_index(
                     16,
                     [](std::size_t i) {
                       if (i == 5) throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
    // The pool survives a throwing job and runs the next one.
    EXPECT_EQ(parallel_map<int>(pool, 3, [](std::size_t i) {
                return static_cast<int>(i);
              }),
              (std::vector<int>{0, 1, 2}));
  }
}

TEST(DeriveSeed, DistinctPerIndexAndBase) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 42ull}) {
    for (std::size_t i = 0; i < 100; ++i) {
      seen.insert(derive_seed(base, i));
    }
  }
  EXPECT_EQ(seen.size(), 300u);  // no collisions across bases or indices
}

TEST(ResolveThreadCount, PrecedenceIsArgOverrideEnvHardware) {
  set_thread_override(0);
  unsetenv("CRS_THREADS");
  EXPECT_GE(resolve_thread_count(), 1u);  // hardware fallback
  EXPECT_EQ(resolve_thread_count(3), 3u);  // explicit request wins

  setenv("CRS_THREADS", "5", 1);
  EXPECT_EQ(resolve_thread_count(), 5u);
  set_thread_override(2);
  EXPECT_EQ(resolve_thread_count(), 2u);  // override beats env
  EXPECT_EQ(resolve_thread_count(7), 7u);  // request still beats override
  set_thread_override(0);
  unsetenv("CRS_THREADS");
}

TEST(ResolveThreadCount, MalformedEnvIsAnErrorNamingIt) {
  // Read with strtol and narrowed, 8x gave 8 threads, 4294967298 gave 2,
  // 4294967296 gave 0 and -3 the hardware count.
  const char* env = std::getenv("CRS_THREADS");
  const std::optional<std::string> saved =
      env ? std::optional<std::string>(env) : std::nullopt;
  set_thread_override(0);
  unsetenv("CRS_THREADS");
  const unsigned hardware = resolve_thread_count();
  for (const char* bad : {"8x", "4294967298", "4294967296", "-3", " 4", "x"}) {
    setenv("CRS_THREADS", bad, 1);
    try {
      resolve_thread_count();
      ADD_FAILURE() << "CRS_THREADS=" << bad << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("CRS_THREADS"), std::string::npos)
          << e.what();
    }
  }
  for (const char* hardware_count : {"", "0"}) {
    setenv("CRS_THREADS", hardware_count, 1);
    EXPECT_EQ(resolve_thread_count(), hardware) << "'" << hardware_count << "'";
  }
  setenv("CRS_THREADS", "3", 1);
  EXPECT_EQ(resolve_thread_count(), 3u);
  if (saved) {
    setenv("CRS_THREADS", saved->c_str(), 1);
  } else {
    unsetenv("CRS_THREADS");
  }
}

TEST(ResolveThreadCount, OutsideCountsAreBoundedBeforeAnyThreadStarts) {
  // Unbounded, CRS_THREADS=100000 or --threads 100000 made the next pool
  // spawn that many OS threads. Only counts are resolved here; no pool is
  // built.
  const char* env = std::getenv("CRS_THREADS");
  const std::optional<std::string> saved =
      env ? std::optional<std::string>(env) : std::nullopt;
  set_thread_override(0);
  const std::string over = std::to_string(kMaxThreads + 1);
  for (const std::string& bad : {over, std::string("100000")}) {
    setenv("CRS_THREADS", bad.c_str(), 1);
    try {
      resolve_thread_count();
      ADD_FAILURE() << "CRS_THREADS=" << bad << " accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("CRS_THREADS"), std::string::npos)
          << e.what();
    }
  }
  setenv("CRS_THREADS", std::to_string(kMaxThreads).c_str(), 1);
  EXPECT_EQ(resolve_thread_count(), kMaxThreads);
  unsetenv("CRS_THREADS");

  // `--threads` is refused as it is installed, and the override stays.
  set_thread_override(2);
  try {
    set_thread_override(kMaxThreads + 1);
    ADD_FAILURE() << "--threads " << over << " accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("--threads"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(resolve_thread_count(), 2u);
  set_thread_override(kMaxThreads);
  EXPECT_EQ(resolve_thread_count(), kMaxThreads);
  set_thread_override(0);
  if (saved) setenv("CRS_THREADS", saved->c_str(), 1);
}

std::string corpus_fingerprint(const ml::Dataset& d) {
  std::ostringstream ss;
  ss.precision(17);
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (const double v : d.x.row(i)) ss << v << ",";
    ss << d.y[i] << ";";
  }
  return ss.str();
}

std::string campaign_fingerprint(const core::CampaignResult& r) {
  std::ostringstream ss;
  ss.precision(17);
  for (const auto& a : r.attempts) {
    ss << a.attempt << ":" << a.detection_rate << ":" << a.benign_fpr << ":"
       << a.detected << a.evaded << a.mutated_after << a.secret_recovered
       << ":" << a.host_ipc << ":" << a.attack_window_count << ";";
  }
  return ss.str();
}

// The headline guarantee: corpus construction and an offline campaign give
// byte-identical results for 1, 2, and 8 worker threads.
TEST(ParallelDeterminism, CorpusAndCampaignAreThreadCountInvariant) {
  core::CorpusConfig cc;
  cc.windows_per_class = 24;
  cc.host_scale = 300;
  cc.seed = 1234;

  std::string corpus_ref, campaign_ref;
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_thread_override(threads);
    const auto benign = core::build_benign_corpus(cc);
    const auto attack = core::build_attack_corpus(cc);

    core::CampaignConfig cfg;
    cfg.detector.classifier = "MLP";
    cfg.detector.features = hid::paper_feature_indices();
    cfg.attempts = 4;
    cfg.seed = 55;
    const auto result = core::run_campaign(cfg, benign, attack);
    set_thread_override(0);

    const std::string corpus_fp =
        corpus_fingerprint(benign) + "|" + corpus_fingerprint(attack);
    const std::string campaign_fp = campaign_fingerprint(result);
    if (threads == 1) {
      corpus_ref = corpus_fp;
      campaign_ref = campaign_fp;
      ASSERT_FALSE(campaign_ref.empty());
    } else {
      EXPECT_EQ(corpus_fp, corpus_ref) << "threads=" << threads;
      EXPECT_EQ(campaign_fp, campaign_ref) << "threads=" << threads;
    }
  }
}

// The observability flavour of the determinism guarantee: the merged trace
// (Chrome JSON and CSV) and the metrics CSV of a traced golden-crspectre
// scenario plus a small offline campaign are byte-identical for 1, 2 and 8
// worker threads.
TEST(ParallelDeterminism, TracesAndMetricsAreThreadCountInvariant) {

  // Corpora are built once, untraced: corpus batches over-produce by up to
  // pool.size()-1 runs (see corpus.cpp), so their per-run emission volume is
  // thread-count-dependent by design and excluded from the contract.
  core::CorpusConfig cc;
  cc.windows_per_class = 24;
  cc.host_scale = 300;
  cc.seed = 1234;
  const auto benign = core::build_benign_corpus(cc);
  const auto attack = core::build_attack_corpus(cc);

  // The golden crspectre scenario (mirrors fuzz/golden.cpp).
  core::ScenarioConfig sc;
  sc.host = "basicmath";
  sc.host_scale = 3000;
  sc.rop_injected = true;
  sc.perturb = true;
  sc.perturb_params.delay = 500;
  sc.perturb_params.loop_count = 10;
  sc.seed = 7;
  sc.profiler.window_cycles = 5'000;

  std::string chrome_ref, csv_ref, metrics_ref;
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_thread_override(threads);
    obs::TraceSink::instance().clear();
    obs::reset_lane_allocator();
    obs::MetricsRegistry::instance().reset_values();
    obs::set_tracing_enabled(true);

    core::run_scenario(sc);

    core::CampaignConfig cfg;
    cfg.detector.classifier = "MLP";
    cfg.detector.features = hid::paper_feature_indices();
    cfg.attempts = 4;
    cfg.seed = 55;
    core::run_campaign(cfg, benign, attack);

    obs::set_tracing_enabled(false);
    set_thread_override(0);

    const auto chrome = obs::TraceSink::instance().chrome_json();
    const auto csv = obs::TraceSink::instance().csv();
    const auto metrics = obs::MetricsRegistry::instance().csv();
    EXPECT_EQ(obs::validate_chrome_trace(chrome), "") << "threads=" << threads;
    EXPECT_GT(obs::TraceSink::instance().event_count(), 0u);
    if (threads == 1) {
      chrome_ref = chrome;
      csv_ref = csv;
      metrics_ref = metrics;
    } else {
      EXPECT_EQ(chrome, chrome_ref) << "threads=" << threads;
      EXPECT_EQ(csv, csv_ref) << "threads=" << threads;
      EXPECT_EQ(metrics, metrics_ref) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace crs
