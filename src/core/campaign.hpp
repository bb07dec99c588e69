// Attack-vs-HID campaign: the experiment behind Figs. 5 and 6.
//
// One campaign = one deployed detector facing one attacker over a series
// of attack attempts:
//
//   per attempt:
//     1. the attacker executes the scenario (standalone Spectre or
//        ROP-injected CR-Spectre with the current perturbation variant),
//     2. the HID classifies the run's attack-active windows; the fraction
//        flagged is the attempt's "accuracy" (the Fig. 5/6 y-axis),
//     3. online HID only: the defender adds the attempt's attack windows
//        (labelled by the ground truth a research testbed has) to the
//        training set and retrains — paper §II-E's online learning,
//     4. dynamic perturbation only: if the attempt was detected
//        (accuracy ≥ detect_threshold, paper: 80%), the attacker mutates
//        the perturbation parameters for the next attempt.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/scenario.hpp"
#include "hid/detector.hpp"
#include "ml/dataset.hpp"
#include "perturb/perturb.hpp"

namespace crs::core {

struct AttemptRecord;

struct CampaignConfig {
  ScenarioConfig scenario;
  hid::DetectorConfig detector;
  bool online_hid = false;
  /// Mutate the perturbation on detection (CR-Spectre vs online HID).
  bool dynamic_perturbation = false;
  int attempts = 10;
  double detect_threshold = 0.80;  ///< paper: detected when >80%
  double evade_threshold = 0.55;   ///< paper: evaded when <=55%
  std::uint64_t seed = 5;

  /// Serial observer called once per attempt, in attempt order, after the
  /// record is folded (for the offline parallel batch: after the
  /// index-ordered collection, so hook order matches the serial campaign).
  /// Returning false stops the campaign early — the result keeps the
  /// attempts recorded so far. The campaign service streams progress frames
  /// and implements mid-flight cancellation through this hook; it must not
  /// mutate state the attempts read, and it does not participate in the
  /// result's determinism contract.
  std::function<bool(const AttemptRecord&)> on_attempt;
};

struct AttemptRecord {
  int attempt = 0;                    ///< 1-based
  double detection_rate = 0.0;        ///< the figure's "accuracy"
  /// False-positive rate on the held-out benign set (the defender's cost
  /// of online adaptation); -1 when no holdout was supplied.
  double benign_fpr = -1.0;
  bool detected = false;               ///< ≥ detect_threshold
  bool evaded = false;                 ///< ≤ evade_threshold
  bool mutated_after = false;          ///< attacker switched variants
  perturb::PerturbParams params;       ///< variant used this attempt
  bool secret_recovered = false;
  double host_ipc = 0.0;
  std::size_t attack_window_count = 0;
  /// Simulated cycles the attempt's scenario consumed (deterministic).
  std::uint64_t sim_cycles = 0;
  /// Wall-clock time the campaign waited for this attempt's run: the shared
  /// execution's wall for every attempt it served
  /// (ScenarioSession::run_attempts), the lookup time for an online attempt
  /// whose run an earlier attempt's execution already held, the solo run's
  /// wall otherwise. NEVER fed into traces or the metrics registry (it
  /// would break byte-reproducibility) — surfaced only through the
  /// --bench-json reporters.
  double wall_ms = 0.0;
};

struct CampaignResult {
  std::vector<AttemptRecord> attempts;

  double mean_detection() const;
  double min_detection() const;
  double max_detection() const;
  /// Fraction of attempts at or under the evade threshold.
  double evasion_fraction() const;
};

/// Runs a campaign. `benign_train`/`attack_train` are universe-feature
/// datasets (from core::build_*_corpus) used for the detector's initial
/// training. When `benign_holdout` is non-null, every attempt also records
/// the detector's false-positive rate on it.
///
/// Attempts that differ only in their seed share one simulated execution
/// (ScenarioSession::run_attempts): an offline campaign makes one shared
/// run on a session local to the calling thread and runs the attempts it
/// could not serve on the pool; an online or dynamic campaign, at attempt k
/// under params P, also runs attempts k+1 and k+2 under P and holds those
/// runs until their turn or the next mutation. The records, and the
/// hid.profiler.* run metrics, are exactly those of one solo run per
/// attempt, wall_ms aside.
CampaignResult run_campaign(const CampaignConfig& config,
                            const ml::Dataset& benign_train,
                            const ml::Dataset& attack_train,
                            const ml::Dataset* benign_holdout = nullptr);

}  // namespace crs::core
