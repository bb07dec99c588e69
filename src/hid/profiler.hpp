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
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/pmu.hpp"

namespace crs::hid {

struct ProfilerConfig {
  std::uint64_t window_cycles = 20'000;
  /// Stop after this many windows even if the program keeps running.
  std::size_t max_windows = 100'000;
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
/// reproducible results.
ProfileResult profile_run(sim::Kernel& kernel, const std::string& path,
                          const std::vector<std::vector<std::uint8_t>>& args,
                          const ProfilerConfig& config = {});

/// String-args convenience.
ProfileResult profile_run_strings(sim::Kernel& kernel, const std::string& path,
                                  const std::vector<std::string>& args,
                                  const ProfilerConfig& config = {});

}  // namespace crs::hid
