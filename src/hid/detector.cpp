#include "hid/detector.hpp"

#include <algorithm>
#include <bit>
#include <compare>
#include <vector>

#include "ml/mlp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/memo.hpp"

namespace crs::hid {

namespace {

/// What a fit reads: the config and the training rows, the doubles as bit
/// patterns so that the same bytes, and only they, train the same model
/// (-0.0 and 0.0, equal as doubles, are different rows here).
struct DetectorKey {
  DetectorKey(const DetectorConfig& cfg, const ml::Dataset& data)
      : config(cfg), rows(data.x.rows()), cols(data.x.cols()), y(data.y) {
    const auto x = data.x.data();
    bits.reserve(x.size());
    for (const double v : x) bits.push_back(std::bit_cast<std::uint64_t>(v));
  }

  DetectorConfig config;
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::uint64_t> bits;
  std::vector<int> y;

  auto operator<=>(const DetectorKey&) const = default;
};

LruCache<DetectorKey, const HidDetector>& detector_cache() {
  static LruCache<DetectorKey, const HidDetector> cache(
      kDetectorMemoCapacity);
  return cache;
}

}  // namespace

HidDetector::HidDetector(const DetectorConfig& config) : config_(config) {
  CRS_ENSURE(config_.feature_count > 0 || !config_.features.empty(),
             "detector needs at least one feature");
}

HidDetector::HidDetector(const HidDetector& other)
    : config_(other.config_),
      training_(other.training_),
      selected_(other.selected_),
      scaler_(other.scaler_),
      model_(other.model_ ? other.model_->clone() : nullptr),
      replay_rng_(other.replay_rng_),
      fitted_(other.fitted_),
      stats_(other.stats_) {}

HidDetector& HidDetector::operator=(const HidDetector& other) {
  if (this != &other) *this = HidDetector(other);
  return *this;
}

std::vector<double> HidDetector::project(
    std::span<const double> universe_row) const {
  std::vector<double> out(selected_.size());
  for (std::size_t j = 0; j < selected_.size(); ++j) {
    CRS_ENSURE(selected_[j] < universe_row.size(),
               "feature index out of range");
    out[j] = universe_row[selected_[j]];
  }
  return out;
}

void HidDetector::fit(const ml::Dataset& universe) {
  CRS_ENSURE(universe.size() > 0, "cannot fit on an empty dataset");
  training_ = universe;
  train();
  record_full_refit();
}

void HidDetector::augment_and_refit(const ml::Dataset& new_universe_rows) {
  CRS_ENSURE(fitted_, "augment_and_refit before fit");
  const std::size_t history_size = training_.size();
  training_.append_all(new_universe_rows);
  stats_.augmented_rows += new_universe_rows.size();
  obs::MetricsRegistry::instance()
      .counter("hid.detector.augmented_rows")
      .add(new_universe_rows.size());
  if (config_.online_mode == OnlineMode::kFullRetrain) {
    train();
    record_full_refit();
    return;
  }
  // Incremental: keep the feature selection and scaler frozen (boundary
  // continuity) and continue training on the new batch mixed with a replay
  // sample of the history — the standard guard against batch imbalance
  // collapsing the model.
  ml::Dataset batch = new_universe_rows;
  const std::size_t replay = std::min(history_size, 2 * batch.size());
  for (std::size_t k = 0; k < replay; ++k) {
    const std::size_t i = replay_rng_.next_below(history_size);
    batch.append(training_.x.row(i), training_.y[i]);
  }
  const ml::Dataset projected = ml::select_features(batch, selected_);
  const ml::Matrix scaled = scaler_.transform(projected.x);
  model_->partial_fit(scaled, projected.y);
  ++stats_.incremental_updates;
  obs::MetricsRegistry::instance()
      .counter("hid.detector.incremental_updates")
      .add(1);
  // Timestamped by retrain ordinal: detector retrains happen between
  // machine runs, so no machine cycle is meaningful here.
  obs::trace_instant("hid.detector.retrain", stats_.retrain_events(),
                     static_cast<double>(training_.size()));
}

void HidDetector::train() {
  if (!config_.features.empty()) {
    selected_ = config_.features;
  } else {
    // Fisher-rank within the PMU-visible candidate pool.
    const std::vector<std::size_t> pool = config_.candidate_features.empty()
                                              ? detector_visible_features()
                                              : config_.candidate_features;
    const auto scores = ml::fisher_scores(training_);
    std::vector<std::size_t> ranked = pool;
    std::stable_sort(ranked.begin(), ranked.end(),
                     [&](std::size_t a, std::size_t b) {
                       return scores[a] > scores[b];
                     });
    ranked.resize(std::min(config_.feature_count, ranked.size()));
    selected_ = ranked;
  }

  const ml::Dataset projected = ml::select_features(training_, selected_);
  scaler_ = ml::StandardScaler();
  scaler_.fit(projected.x);
  const ml::Matrix scaled = scaler_.transform(projected.x);

  model_ = ml::make_classifier(config_.classifier, config_.seed);
  model_->fit(scaled, projected.y);
  fitted_ = true;
}

void HidDetector::record_full_refit() {
  ++stats_.full_refits;
  obs::MetricsRegistry::instance().counter("hid.detector.full_refits").add(1);
  obs::trace_instant("hid.detector.retrain", stats_.retrain_events(),
                     static_cast<double>(training_.size()));
}

int HidDetector::predict(const sim::PmuSnapshot& window_delta) const {
  CRS_ENSURE(fitted_, "predict before fit");
  const auto universe_row = feature_vector(window_delta);
  const auto scaled = scaler_.transform(project(universe_row));
  return model_->predict(scaled);
}

double HidDetector::detection_rate(
    const std::vector<WindowSample>& windows) const {
  if (windows.empty()) return 0.0;
  std::size_t detected = 0;
  for (const auto& w : windows) {
    detected += predict(w.delta) == 1 ? 1 : 0;
  }
  return static_cast<double>(detected) / static_cast<double>(windows.size());
}

ml::ConfusionMatrix HidDetector::evaluate(
    const ml::Dataset& universe_test) const {
  CRS_ENSURE(fitted_, "evaluate before fit");
  std::vector<int> predicted(universe_test.size());
  for (std::size_t i = 0; i < universe_test.size(); ++i) {
    const auto scaled =
        scaler_.transform(project(universe_test.x.row(i)));
    predicted[i] = model_->predict(scaled);
  }
  return ml::confusion(universe_test.y, predicted);
}

HidDetector trained_detector(const DetectorConfig& config,
                             const ml::Dataset& universe) {
  CRS_ENSURE(universe.size() > 0, "cannot fit on an empty dataset");
  // The key holds the entry's copy of the rows; the cached detector drops
  // its own, and each hand-out takes the caller's (bitwise the same).
  const auto cached =
      detector_cache().get_or_build(DetectorKey(config, universe), [&] {
        HidDetector d(config);
        d.training_ = universe;
        d.train();
        d.training_ = {};
        return d;
      });
  HidDetector out(*cached);
  out.training_ = universe;
  out.record_full_refit();
  return out;
}

DetectorMemoStats detector_memo_stats() {
  const auto& cache = detector_cache();
  return {cache.hits(), cache.misses(), cache.size()};
}

}  // namespace crs::hid
