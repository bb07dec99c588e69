// Windowed HPC profiler — the PMU sampling half of the HID.
//
// Mirrors the PAPI-based tool of the paper's §III-A: while an application
// runs, the profiler samples the PMU every `window_cycles` and records the
// per-window counter deltas. Each window also carries ground truth (was an
// execve-injected binary running?) used ONLY for dataset labelling and
// evaluation, never as a model input.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/pmu.hpp"

namespace crs::hid {

struct ProfilerConfig {
  std::uint64_t window_cycles = 20'000;
  /// Stop after this many windows even if the program keeps running.
  std::size_t max_windows = 100'000;
  /// Instruction budget of the whole run, across all its windows: the run
  /// stops with kInstructionLimit once this many instructions have retired
  /// since start.
  std::uint64_t max_instructions = 2'000'000'000;
  /// Multiplicative Gaussian measurement noise per counter per window,
  /// modelling real PMU sampling error (interrupt skid, multiplexing).
  /// The paper's own per-attempt accuracy wiggle (Fig. 5a) comes from
  /// exactly this. 0 = ideal counters.
  double noise_sigma = 0.06;
  /// Additive background contamination: interrupts, kernel threads and
  /// other processes leak events into per-process counters (paper §III-C:
  /// "noise is caused by other applications and the operating system
  /// running in the background"). Scales a fixed per-kilocycle event-rate
  /// table; 1.0 ≈ a lightly loaded desktop, 0 disables.
  double background_intensity = 1.0;
  std::uint64_t noise_seed = 0x90210;

  auto operator<=>(const ProfilerConfig&) const = default;
};

struct WindowSample {
  sim::PmuSnapshot delta{};       ///< measured (noisy) counter increments
  sim::PmuSnapshot true_delta{};  ///< noiseless increments (evaluation only)
  bool injected = false;          ///< ground truth: attack ran in window
};

struct ProfileResult {
  std::vector<WindowSample> windows;
  sim::StopReason stop = sim::StopReason::kHalted;
  std::string output;           ///< SYS_WRITE stream of the run
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;

  /// IPC of the whole run.
  double ipc() const;
  std::size_t injected_window_count() const;
};

/// Runs `path` (already registered in `kernel`) with `args`, sampling
/// windows until exit. The kernel/machine must be freshly constructed for
/// reproducible results. The one-stream case of profile_runs.
ProfileResult profile_run(sim::Kernel& kernel, const std::string& path,
                          const std::vector<std::vector<std::uint8_t>>& args,
                          const ProfilerConfig& config = {});

/// One simulated execution of `path`, sampled by one stream per config.
/// Each stream keeps its own window length, noise RNG and previous
/// snapshot; the run stops at the earliest pending window end, and since
/// the CPU stops at the first instruction boundary at or past a cycle
/// target, every stream's windows close exactly where its solo run would
/// close them. All configs must share max_instructions, the run's budget.
///
/// Stream 0 is always exactly profile_run(kernel, path, args, configs[0]).
/// Every later stream stands for a solo run on a kernel reset with another
/// seed, so it is served only if the run never depended on its seed
/// (sim::Kernel::seed_dependent) and the stream stops the machine where
/// stream 0 does (not at its own max_windows while stream 0 runs on).
/// Returns the results of a prefix of the streams: stream 0 and each later
/// stream up to the first that could not be served.
///
/// Counts the execution in hid.profiler.executions but records no per-run
/// metrics: the caller records each result it uses (record_run_metrics),
/// so a result sampled ahead and then dropped counts nowhere.
std::vector<ProfileResult> profile_runs(
    sim::Kernel& kernel, const std::string& path,
    const std::vector<std::vector<std::uint8_t>>& args,
    std::span<const ProfilerConfig> configs);

/// Records one profiled run in the hid.profiler.{runs,windows,
/// injected_windows} counters and the hid.profiler.window_cycles
/// histogram. profile_run records its own result.
void record_run_metrics(const ProfileResult& result);

/// String-args convenience.
ProfileResult profile_run_strings(sim::Kernel& kernel, const std::string& path,
                                  const std::vector<std::string>& args,
                                  const ProfilerConfig& config = {});

}  // namespace crs::hid
