// Attempt-anatomy replay: rebuilds one attempt from the workloads, casm,
// rop, attack, sim and hid public calls and times each stage. A replay
// counts only when it reproduces the reference run_attempt's simulated
// cycles, instructions, window count and recovered bytes exactly; the sim.*
// and hid.* per-layer metrics come only from replays that do.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"
#include "core/scenario.hpp"

namespace crbench {

struct AttemptRef {
  std::string label;
  crs::core::ScenarioConfig config;  ///< session config (seed = session seed)
  std::uint64_t attempt_seed = 0;
  crs::perturb::PerturbParams params;
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::size_t windows = 0;
  std::string recovered;
  /// The session had run an attempt before this one, so the simulator's
  /// decode and block caches were warm (a restore keeps them).
  bool warm = false;
};

/// Captures what a replay must reproduce from a finished attempt.
AttemptRef make_ref(const std::string& label,
                    const crs::core::ScenarioConfig& session_config,
                    std::uint64_t attempt_seed,
                    const crs::perturb::PerturbParams& params,
                    const crs::core::ScenarioRun& run, bool warm);

/// Builds a session for `config` and runs its first attempt through the
/// public ScenarioSession API (timed as core.session_ms / core.attempt_ms).
/// `run_out`, when given, receives the attempt's run.
AttemptRef reference_attempt(const std::string& label,
                             const crs::core::ScenarioConfig& config,
                             std::uint64_t attempt_seed,
                             crs::core::ScenarioRun* run_out = nullptr);

/// Replays `ref`; returns true when it reproduced the reference exactly.
/// Mismatches are recorded in `report` (they are reported, not used). The
/// profiled and the unprofiled pass each run on their own fresh fork, in
/// the cache state the reference ran in: a warm reference's forks first
/// run the attempt once and restore.
bool replay_attempt(const AttemptRef& ref, Report& report);

/// Builds the leak-stage probe binary `config`'s session builds (timed as
/// harden.probe_build_ms); leak-stage scenarios are not replayable.
void time_probe_build(const crs::core::ScenarioConfig& config);

/// True when the replay can rebuild this scenario from public calls
/// (leak-stage, Spectre 1.1 and mined scenarios are not sampled).
bool replayable(const crs::core::ScenarioConfig& config);

}  // namespace crbench
