// The attack-vs-defense grids.
//
// One driver runs attack rows × defense columns, a column being a named
// mitigation set plus a hardening configuration, and reports per cell:
// leak-success rate, how many attempts reached their payload, how many
// leak-stage probes recovered the image base, HID detection over the
// attack-active windows (when the grid scores a detector), and both defense
// layers' engagement counters. Per column it also measures the IPC overhead
// the defense costs a clean host. Two grids are choices of rows and columns:
//
//   * the defense matrix (run_defense_matrix): {plain Spectre variants,
//     CR-Spectre} × {mitigation presets}, scored by one fixed detector. The
//     `none` column must reproduce CR-Spectre's leak-and-evade result, and
//     at least one fence-style preset must drive the plain Spectre leak rate
//     to zero;
//   * the harden sweep (run_harden_matrix, crs_matrix --harden-sweep):
//     {classic stack overflow, speculative-probe-parameterized ROP, Spectre
//     1.1 store overflow} × {hardening presets}, unscored. The classic
//     injection dies under canary/ASLR while the speculative attacks keep a
//     nonzero leak rate against the full preset.
//
// Each grid arms one layer only, so the other half of every cell's summary
// is zero. The CSVs below are projections of the one result type.
//
// Determinism: session seeds derive per attack row, every attempt derives
// its seed from (base seed, flat attack × column × attempt index), and the
// one fan-out's results fold by index (each cell's attempts in attempt
// order, each column's cost probes in repeat order), so a grid is
// byte-identical for any CRS_THREADS value and either exec engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "harden/config.hpp"
#include "hid/detector.hpp"
#include "mitigate/config.hpp"

namespace crs::core {

/// One attack row of a grid. The scenario's `mitigations` and `harden`
/// fields are overwritten per column.
struct AttackSpec {
  std::string name;      ///< e.g. "spectre-pht", "cr-spectre"
  ScenarioConfig scenario;
};

struct DefenseMatrixConfig {
  /// Attempts per (attack, preset) cell; leak/detection rates average them.
  int attempts = 4;
  std::uint64_t seed = 23;
  /// Host work scale for the injected rows and the overhead probes.
  std::uint64_t host_scale = 8000;
  std::string secret = "CRSPECTRE-SECRET";
  /// Presets to sweep; empty = every named preset of the grid's layer in
  /// display order. A name may appear once.
  std::vector<std::string> presets;
  /// Training-corpus size per class for the defense matrix's shared
  /// (unmitigated) detector; the unscored harden sweep ignores it.
  std::size_t corpus_windows = 160;
  /// Repeats for the per-preset IPC-overhead probe.
  int overhead_repeats = 2;
  /// Quick mode: fewer attempts/windows, for the CI smoke job.
  bool quick = false;

  /// Effective values after the quick-mode clamp.
  int effective_attempts() const { return quick ? 2 : attempts; }
  std::size_t effective_corpus_windows() const {
    return quick ? 60 : corpus_windows;
  }
  int effective_overhead_repeats() const { return quick ? 1 : overhead_repeats; }
};

/// The harden sweep's name for the grid config (kept because crbench uses it).
using HardenMatrixConfig = DefenseMatrixConfig;

/// Both defense layers' engagement counters.
struct DefenseSummary {
  mitigate::MitigationSummary mitigation;
  harden::HardenSummary harden;

  std::uint64_t total_events() const {
    return mitigation.total_events() + harden.total_events();
  }
};

/// One (attack, preset) cell, summed/averaged over the configured attempts.
struct MatrixCell {
  std::string attack;
  std::string preset;
  int attempts = 0;
  int leaks = 0;                  ///< attempts that recovered the secret
  double leak_rate = 0.0;
  /// Mean detection over attack windows; 0 in a grid that scores no
  /// detector.
  double hid_detection = 0.0;
  /// Attempts whose payload actually ran (execve fired / standalone ran).
  /// The canary and aslr columns drive this to zero for the classic
  /// overflow; the leak stage restores it.
  int launches = 0;
  /// Leak-stage probe passes that recovered the victim image base.
  int base_leaks = 0;
  /// Total mitigation / hardening events across the cell's attempts (the
  /// "did the defense actually engage" columns).
  std::uint64_t mitigation_events = 0;
  std::uint64_t harden_events = 0;
  /// Per-counter breakdown behind the two event totals, summed over
  /// attempts.
  DefenseSummary summary;
};

struct DefenseMatrixResult {
  std::vector<std::string> presets;          ///< column order
  std::vector<std::string> attacks;          ///< row order
  std::vector<MatrixCell> cells;             ///< row-major (attack × preset)
  /// Per-preset clean-host IPC overhead (percent), aligned with `presets`.
  std::vector<double> ipc_overhead_pct;

  const MatrixCell& cell(const std::string& attack,
                         const std::string& preset) const;

  /// Defense activity of one preset summed over every attack row — the
  /// `--metrics` view.
  DefenseSummary preset_summary(const std::string& preset) const;
};

/// The harden sweep's name for the grid result (kept because crbench uses
/// it).
using HardenMatrixResult = DefenseMatrixResult;

/// The defense matrix's rows: spectre-pht and spectre-rsb standalone, plus
/// the ROP-injected CR-Spectre with the paper's static perturbation.
std::vector<AttackSpec> default_attacks(const DefenseMatrixConfig& config);

/// The harden sweep's rows: the classic canary-unaware stack overflow, the
/// probe-parameterized ROP injection (leak stage on), and the standalone
/// Spectre 1.1 speculative store overflow.
std::vector<AttackSpec> default_harden_attacks(
    const DefenseMatrixConfig& config);

/// The defense matrix: default_attacks × mitigation presets. The defender
/// trains once, on unmitigated traces, and that fixed detector scores every
/// cell.
DefenseMatrixResult run_defense_matrix(const DefenseMatrixConfig& config);

/// The defense matrix with extra attack rows appended after the defaults —
/// how mined gadget scenarios (tools/gadget_hunter --emit-scenarios,
/// crs_matrix --mined) join it. Extra rows follow the same per-attack seed
/// derivation, so the default rows stay byte-identical to the plain sweep.
DefenseMatrixResult run_defense_matrix(
    const DefenseMatrixConfig& config,
    const std::vector<AttackSpec>& extra_attacks);

/// The harden sweep: default_harden_attacks × hardening presets, unscored.
DefenseMatrixResult run_harden_matrix(const DefenseMatrixConfig& config);

/// Defense-matrix CSV: header row `attack,preset,attempts,leaks,leak_rate,
/// hid_detection,mitigation_events,ipc_overhead_pct`, one line per cell.
std::string matrix_csv(const DefenseMatrixResult& result);

/// Defense-matrix JSON object with `presets`, `attacks`, `cells` and
/// `ipc_overhead_pct`.
std::string matrix_json(const DefenseMatrixResult& result);

/// Per-preset mitigation-counter CSV: `preset,metric,value`, one line per
/// (preset, counter) plus a total. Ground-truth counters, present in every
/// build flavour (not obs-gated).
std::string matrix_metrics_csv(const DefenseMatrixResult& result);

/// Harden-sweep CSV: header row `attack,preset,attempts,launches,leaks,
/// leak_rate,base_leaks,harden_events,ipc_overhead_pct`, one line per cell.
std::string harden_matrix_csv(const DefenseMatrixResult& result);

/// Per-preset hardening-counter CSV, laid out like matrix_metrics_csv.
std::string harden_matrix_metrics_csv(const DefenseMatrixResult& result);

}  // namespace crs::core
