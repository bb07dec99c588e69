// The Hardware-assisted Intrusion Detector (HID).
//
// A detector = feature selection + standard scaler + one classifier from
// the paper's zoo. Two deployment modes reproduce §III-B:
//  - offline: trained once on clean benign/Spectre traces, never updated
//    (the [22]/CloudRadar-style static detector of Fig. 5);
//  - online: after every attack attempt the newly profiled windows, with
//    their (defender-assigned) labels, update the model (Fig. 6). The
//    default OnlineMode::kIncremental is a partial_fit-style update on the
//    new batch only; kFullRetrain retrains from scratch on everything
//    accumulated so far.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hid/features.hpp"
#include "hid/profiler.hpp"
#include "ml/classifier.hpp"
#include "ml/dataset.hpp"
#include "ml/metrics.hpp"
#include "support/rng.hpp"

namespace crs::hid {

/// How the online HID incorporates newly labelled traces.
enum class OnlineMode {
  /// sklearn-partial_fit-style incremental update on the new batch only:
  /// the realistic streaming online learner (and the one CR-Spectre's
  /// moving-target strategy defeats, reproducing Fig. 6b).
  kIncremental,
  /// Full retraining on the entire accumulated dataset: a stronger,
  /// costlier defender — the ablation bench shows it largely defeats the
  /// dynamic perturbations.
  kFullRetrain,
};

struct DetectorConfig {
  /// "MLP", "NN", "LR" or "SVM".
  std::string classifier = "MLP";
  /// Explicit feature indices into the universe; empty = rank by Fisher
  /// score on the training data and take the top `feature_count` from
  /// `candidate_features`.
  std::vector<std::size_t> features;
  std::size_t feature_count = 4;  ///< paper's chosen runtime feature size
  /// Pool Fisher ranking selects from; empty = detector_visible_features().
  std::vector<std::size_t> candidate_features;
  OnlineMode online_mode = OnlineMode::kIncremental;
  std::uint64_t seed = 1;

  auto operator<=>(const DetectorConfig&) const = default;
};

/// Retraining activity, observable directly instead of only through
/// accuracy drift. Counters are cumulative over the detector's lifetime and
/// mirrored into the MetricsRegistry (`hid.detector.*`) as they happen.
struct DetectorStats {
  /// Full (re)trains: the initial fit() plus every kFullRetrain update.
  std::uint64_t full_refits = 0;
  /// partial_fit-style kIncremental updates.
  std::uint64_t incremental_updates = 0;
  /// Universe rows accepted through augment_and_refit.
  std::uint64_t augmented_rows = 0;

  std::uint64_t retrain_events() const {
    return full_refits + incremental_updates;
  }
};

class HidDetector {
 public:
  explicit HidDetector(const DetectorConfig& config);

  /// Deep copies: the copy owns a clone of the model, so training either
  /// detector leaves the other unchanged.
  HidDetector(const HidDetector& other);
  HidDetector& operator=(const HidDetector& other);
  HidDetector(HidDetector&&) noexcept = default;
  HidDetector& operator=(HidDetector&&) noexcept = default;

  /// Initial training. `universe` rows are full feature_vector() outputs.
  /// Always trains; trained_detector() is the memoized equivalent.
  void fit(const ml::Dataset& universe);

  /// Online learning: incorporate newly labelled windows per the
  /// configured OnlineMode (incremental update or full retrain on the
  /// augmented dataset).
  void augment_and_refit(const ml::Dataset& new_universe_rows);

  /// 1 = attack.
  int predict(const sim::PmuSnapshot& window_delta) const;

  /// Fraction of windows classified as attack (the per-attempt "accuracy"
  /// of Figs. 5/6 when applied to an attack run's windows).
  double detection_rate(const std::vector<WindowSample>& windows) const;

  /// Confusion over a labelled universe-feature test set (Fig. 4 metric).
  ml::ConfusionMatrix evaluate(const ml::Dataset& universe_test) const;

  const std::vector<std::size_t>& selected_features() const {
    return selected_;
  }
  const DetectorConfig& config() const { return config_; }
  std::size_t training_size() const { return training_.size(); }
  bool fitted() const { return fitted_; }
  const DetectorStats& stats() const { return stats_; }

 private:
  friend HidDetector trained_detector(const DetectorConfig& config,
                                      const ml::Dataset& universe);

  std::vector<double> project(std::span<const double> universe_row) const;
  /// Full training on training_: feature selection, scaler and model.
  void train();
  /// Counts a full (re)train in stats_ and emits its metric and trace
  /// instant. Kept apart from train() so a memoized detector records its
  /// fit exactly as a fresh one does.
  void record_full_refit();

  DetectorConfig config_;
  ml::Dataset training_;  // universe-width rows, accumulated
  std::vector<std::size_t> selected_;
  ml::StandardScaler scaler_;
  std::unique_ptr<ml::Classifier> model_;
  Rng replay_rng_{0x5EED1234};
  bool fitted_ = false;
  // Mutated only from the (serial) training paths; predict/detection_rate
  // stay const and race-free for the parallel offline campaign.
  DetectorStats stats_;
};

/// Entries the trained_detector() memo holds: the four-classifier zoo on two
/// training corpora. A constant, so fresh-seed traffic cannot grow the cache.
inline constexpr std::size_t kDetectorMemoCapacity = 8;

/// Equivalent to `HidDetector d(config); d.fit(universe);` in every
/// observable — predictions, selected features, stats(), the
/// `hid.detector.*` metrics and the retrain trace instant — but the training
/// is memoized process-wide: a request whose config and rows equal a cached
/// one's (compared bit for bit) gets a deep copy of the
/// cached detector instead of a refit. The copy is the caller's own, so
/// augment_and_refit never reaches the cache.
HidDetector trained_detector(const DetectorConfig& config,
                             const ml::Dataset& universe);

struct DetectorMemoStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t size = 0;  ///< live entries, at most kDetectorMemoCapacity
};
DetectorMemoStats detector_memo_stats();

}  // namespace crs::hid
