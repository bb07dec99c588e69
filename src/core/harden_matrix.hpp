// The hardening-vs-attack sweep (crs_matrix --harden-sweep).
//
// Sweeps {classic stack overflow, speculative-probe-parameterized ROP,
// Spectre 1.1 store overflow} × {hardening presets} and reports, per cell:
// leak-success rate, how many attempts actually reached their payload
// (`launches` — the canary column drives this to zero for the classic
// overflow), how many leak-stage probes recovered the image base, and the
// hardening layers' own engagement counters. Per preset it also measures
// the IPC overhead the hardening costs a clean host. This is the paper's
// defense-awareness thesis extended to memory-safety hardening: the classic
// injection dies under canary/ASLR while the speculative attacks keep a
// nonzero leak rate against the full preset.
//
// Determinism: identical discipline to run_defense_matrix — per-attack
// session seeds, per-attempt seeds derived from the flat (attack × preset ×
// attempt) item index, index-ordered fold — so the CSV is byte-identical
// for any CRS_THREADS and either exec engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "harden/config.hpp"

namespace crs::core {

/// One attack row of the harden sweep. The scenario's `harden` field is
/// overwritten per column.
struct HardenAttackSpec {
  std::string name;  ///< e.g. "stack-overflow", "spec-probe-rop"
  ScenarioConfig scenario;
};

struct HardenMatrixConfig {
  /// Attempts per (attack, preset) cell; leak rates average them.
  int attempts = 4;
  std::uint64_t seed = 29;
  /// Host work scale for the injected rows and the overhead probes.
  std::uint64_t host_scale = 8000;
  std::string secret = "CRSPECTRE-SECRET";
  /// Presets to sweep; empty = every named harden preset in display order.
  std::vector<std::string> presets;
  /// Repeats for the per-preset IPC-overhead probe.
  int overhead_repeats = 2;
  /// Quick mode: fewer attempts, for the CI smoke job.
  bool quick = false;

  int effective_attempts() const { return quick ? 2 : attempts; }
  int effective_overhead_repeats() const { return quick ? 1 : overhead_repeats; }
};

/// One (attack, preset) cell, summed/averaged over the configured attempts.
struct HardenCell {
  std::string attack;
  std::string preset;
  int attempts = 0;
  int leaks = 0;  ///< attempts that recovered the secret
  double leak_rate = 0.0;
  /// Attempts whose payload actually ran (execve fired / standalone ran).
  /// The canary and aslr columns drive this to zero for the classic
  /// overflow; the leak stage restores it.
  int launches = 0;
  /// Leak-stage probe passes that recovered the victim image base.
  int base_leaks = 0;
  /// Total hardening engagement across the cell's attempts (0 only for the
  /// none column).
  std::uint64_t harden_events = 0;
  /// Per-counter breakdown behind harden_events, summed over attempts.
  harden::HardenSummary summary;
};

struct HardenMatrixResult {
  std::vector<std::string> presets;  ///< column order
  std::vector<std::string> attacks;  ///< row order
  std::vector<HardenCell> cells;     ///< row-major (attack × preset)
  /// Per-preset clean-host IPC overhead (percent), aligned with `presets`.
  std::vector<double> ipc_overhead_pct;

  const HardenCell& cell(const std::string& attack,
                         const std::string& preset) const;

  /// Hardening activity of one preset summed over every attack row — the
  /// `--metrics` view.
  harden::HardenSummary preset_summary(const std::string& preset) const;
};

/// The default attack rows: the classic canary-unaware stack overflow, the
/// probe-parameterized ROP injection (leak stage on), and the standalone
/// Spectre 1.1 speculative store overflow.
std::vector<HardenAttackSpec> default_harden_attacks(
    const HardenMatrixConfig& config);

HardenMatrixResult run_harden_matrix(const HardenMatrixConfig& config);

/// CSV: header row `attack,preset,attempts,launches,leaks,leak_rate,
/// base_leaks,harden_events,ipc_overhead_pct`, one line per cell.
std::string harden_matrix_csv(const HardenMatrixResult& result);

/// Per-preset hardening-counter CSV: `preset,metric,value`, one line per
/// (preset, counter) plus a total. Ground-truth counters, not obs-gated.
std::string harden_matrix_metrics_csv(const HardenMatrixResult& result);

}  // namespace crs::core
