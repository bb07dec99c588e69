// Table I: IPC overhead of CR-Spectre on the host application.
//
// The paper reports the host application's IPC in three settings: original
// (no attack), CR-Spectre under an offline-type HID (one static
// perturbation variant), and CR-Spectre under an online-type HID (dynamic
// variants, which disperse more and therefore run longer). Because the
// injected attack executes under the host's identity, the measured IPC is
// the *whole process's*: the overhead is the attack's (low-IPC) execution
// diluted by a long host run, plus cache/predictor pollution of the host's
// own work. Hosts are sized so the attack is a ~1-3% sliver — the paper's
// regime, where overhead lands around a percent. Values are averaged over
// repeated jittered runs (the paper averages 100 iterations).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/scenario.hpp"

namespace crs::core {

struct OverheadRow {
  std::string label;  ///< e.g. "Bitcount 50M"
  std::string host;
  std::uint64_t scale = 0;
  double original_ipc = 0.0;
  double offline_ipc = 0.0;  ///< CR-Spectre, static perturbation
  double online_ipc = 0.0;   ///< CR-Spectre, dynamic perturbation
  double offline_overhead_pct = 0.0;
  double online_overhead_pct = 0.0;
};

struct OverheadConfig {
  int repeats = 3;
  std::uint64_t seed = 17;
  /// Short secret: one burglary, not a bulk exfiltration.
  std::string secret = "KEY0";
  hid::ProfilerConfig profiler;
};

/// Measures one Table I row.
OverheadRow measure_overhead(const std::string& label, const std::string& host,
                             std::uint64_t scale,
                             const OverheadConfig& config = {});

/// The paper's five rows: Math, Bitcount 50M, Bitcount 100M, SHA 1, SHA 2
/// (simulation-scaled; see EXPERIMENTS.md for the scale mapping).
std::vector<OverheadRow> table_one(const OverheadConfig& config = {});

/// IPC overhead (percent, positive = slower) that a defense column (a
/// mitigation set plus a hardening configuration) imposes on a clean,
/// non-attacked host run: fences and flushes, canary plant/check
/// instructions, relocated layout, guarded-heap bookkeeping. This is the
/// defense grids' cost column. Paired seeds: every repeat runs the same
/// jittered host with and without the defenses, so the contrast is the
/// defenses' alone.
///
/// The measurement is overhead_probes(config), each run by
/// run_overhead_probe and folded by overhead_pct; the grids run the same
/// probes as separate pool items and fold them the same way.
double defense_overhead_pct(const std::string& host, std::uint64_t scale,
                            const mitigate::MitigationConfig& mitigations,
                            const harden::HardenConfig& harden,
                            const OverheadConfig& config = {});

/// One clean-host run of defense_overhead_pct: a repeat's seed, run with
/// or without the column's defenses.
struct OverheadProbe {
  std::uint64_t seed = 0;
  bool defended = false;
};

/// defense_overhead_pct's runs in fold order: per repeat, the baseline run
/// and then the defended run, both on that repeat's seed.
std::vector<OverheadProbe> overhead_probes(const OverheadConfig& config);

/// IPC of one probe run. Share-nothing: safe to run concurrently.
double run_overhead_probe(const std::string& host, std::uint64_t scale,
                          const mitigate::MitigationConfig& mitigations,
                          const harden::HardenConfig& harden,
                          const OverheadConfig& config,
                          const OverheadProbe& probe);

/// The overhead percentage from `ipc[i]`, the IPC of `probes[i]`, folded
/// in probe order.
double overhead_pct(std::span<const OverheadProbe> probes,
                    std::span<const double> ipc);

/// defense_overhead_pct with only mitigations armed (kept because crbench
/// uses it).
inline double mitigation_overhead_pct(
    const std::string& host, std::uint64_t scale,
    const mitigate::MitigationConfig& mitigations,
    const OverheadConfig& config = {}) {
  return defense_overhead_pct(host, scale, mitigations, {}, config);
}

/// defense_overhead_pct with only hardening armed (kept because crbench
/// uses it).
inline double harden_overhead_pct(const std::string& host, std::uint64_t scale,
                                  const harden::HardenConfig& harden,
                                  const OverheadConfig& config = {}) {
  return defense_overhead_pct(host, scale, {}, harden, config);
}

}  // namespace crs::core
