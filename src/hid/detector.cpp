#include "hid/detector.hpp"

#include <algorithm>
#include <bit>

#include "ml/mlp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/memo.hpp"

namespace crs::hid {

namespace {

MemoCache<HidDetector>& detector_cache() {
  static MemoCache<HidDetector> cache(kDetectorMemoCapacity);
  return cache;
}

std::uint64_t detector_key(const DetectorConfig& config,
                           const ml::Dataset& rows) {
  HashBuilder h;
  h.str(config.classifier);
  h.u64(config.features.size());
  for (const std::size_t f : config.features) h.u64(f);
  h.u64(config.feature_count);
  h.u64(config.candidate_features.size());
  for (const std::size_t f : config.candidate_features) h.u64(f);
  h.u32(static_cast<std::uint32_t>(config.online_mode));
  h.u64(config.seed);
  const auto x = rows.x.data();
  h.u64(rows.x.rows()).u64(rows.x.cols());
  h.bytes(x.data(), x.size_bytes());
  h.u64(rows.y.size());
  h.bytes(rows.y.data(), rows.y.size() * sizeof(int));
  return h.digest();
}

/// Bitwise equality: the same bytes train the same model (-0.0 and 0.0,
/// which compare equal as doubles, do not count as the same row).
bool same_rows(const ml::Dataset& a, const ml::Dataset& b) {
  const auto ax = a.x.data();
  const auto bx = b.x.data();
  return a.x.rows() == b.x.rows() && a.x.cols() == b.x.cols() &&
         std::equal(ax.begin(), ax.end(), bx.begin(),
                    [](double p, double q) {
                      return std::bit_cast<std::uint64_t>(p) ==
                             std::bit_cast<std::uint64_t>(q);
                    }) &&
         a.y == b.y;
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
  if constexpr (obs::kEnabled) {
    obs::MetricsRegistry::instance()
        .counter("hid.detector.augmented_rows")
        .add(new_universe_rows.size());
  }
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
  if constexpr (obs::kEnabled) {
    obs::MetricsRegistry::instance()
        .counter("hid.detector.incremental_updates")
        .add(1);
    // Timestamped by retrain ordinal: detector retrains happen between
    // machine runs, so no machine cycle is meaningful here.
    obs::trace_instant("hid.detector.retrain", stats_.retrain_events(),
                       static_cast<double>(training_.size()));
  }
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
  if constexpr (obs::kEnabled) {
    obs::MetricsRegistry::instance().counter("hid.detector.full_refits").add(1);
    obs::trace_instant("hid.detector.retrain", stats_.retrain_events(),
                       static_cast<double>(training_.size()));
  }
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
  const auto cached = detector_cache().get_or_build(
      detector_key(config, universe),
      [&] {
        HidDetector d(config);
        d.training_ = universe;
        d.train();
        return d;
      },
      [&](const HidDetector& d) {
        return d.config_ == config && same_rows(d.training_, universe);
      });
  HidDetector out(*cached);
  out.record_full_refit();
  return out;
}

DetectorMemoStats detector_memo_stats() {
  const auto& cache = detector_cache();
  return {cache.hits(), cache.misses(), cache.size()};
}

}  // namespace crs::hid
