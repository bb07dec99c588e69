#include "hid/profiler.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace crs::hid {

namespace {

/// Mean background events injected per 1000 window cycles — a lightly
/// loaded system's daemons, timer interrupts and kernel threads as seen by
/// per-process counter attribution.
double background_rate(sim::Event e) {
  switch (e) {
    case sim::Event::kInstructions: return 25.0;
    case sim::Event::kAluOps: return 12.0;
    case sim::Event::kLoads: return 6.0;
    case sim::Event::kStores: return 3.0;
    case sim::Event::kL1dAccesses: return 9.0;
    case sim::Event::kL1dMisses: return 0.5;
    case sim::Event::kL2Accesses: return 0.6;
    case sim::Event::kL2Misses: return 0.15;
    case sim::Event::kL1iAccesses: return 25.0;
    case sim::Event::kL1iMisses: return 0.4;
    case sim::Event::kBranches: return 5.0;
    case sim::Event::kTakenBranches: return 2.5;
    case sim::Event::kBranchMispredicts: return 0.4;
    case sim::Event::kIndirectJumps: return 0.2;
    case sim::Event::kCalls: return 0.6;
    case sim::Event::kReturns: return 0.6;
    case sim::Event::kStackOps: return 1.2;
    case sim::Event::kSpecInstructions: return 2.0;
    case sim::Event::kSpecLoads: return 0.4;
    case sim::Event::kRsbMispredicts: return 0.03;
    case sim::Event::kSyscalls: return 0.05;
    case sim::Event::kMfences: return 0.01;
    default: return 0.0;  // cycles (wall time) and clflushes stay clean
  }
}

sim::PmuSnapshot add_measurement_noise(const sim::PmuSnapshot& delta,
                                       const ProfilerConfig& config,
                                       Rng& rng) {
  if (config.noise_sigma <= 0.0 && config.background_intensity <= 0.0) {
    return delta;
  }
  const double kilocycles =
      static_cast<double>(delta[static_cast<std::size_t>(
          sim::Event::kCycles)]) / 1000.0;
  sim::PmuSnapshot out{};
  for (std::size_t i = 0; i < sim::kEventCount; ++i) {
    double v = static_cast<double>(delta[i]);
    if (config.noise_sigma > 0.0) {
      v *= std::max(0.0, 1.0 + rng.next_gaussian(0.0, config.noise_sigma));
    }
    if (config.background_intensity > 0.0) {
      const double lambda = config.background_intensity * kilocycles *
                            background_rate(static_cast<sim::Event>(i));
      if (lambda > 0.0) {
        v += std::max(0.0, rng.next_gaussian(lambda, 0.5 * lambda));
      }
    }
    out[i] = static_cast<std::uint64_t>(std::llround(std::max(0.0, v)));
  }
  return out;
}

}  // namespace

double ProfileResult::ipc() const {
  return cycles == 0 ? 0.0
                     : static_cast<double>(instructions) /
                           static_cast<double>(cycles);
}

std::size_t ProfileResult::injected_window_count() const {
  std::size_t n = 0;
  for (const auto& w : windows) n += w.injected ? 1 : 0;
  return n;
}

namespace {

/// The machine at one stop of the run: what a window closing here sees.
struct Edge {
  sim::PmuSnapshot pmu{};
  std::uint64_t cycle = 0;
  int execves = 0;
  bool injected = false;
};

/// One profiler stream: a solo run's sampling state.
struct Stream {
  Stream(const ProfilerConfig& c, const Edge& start)
      : config(&c),
        prev(start.pmu),
        prev_execves(start.execves),
        was_injected(start.injected),
        noise_rng(c.noise_seed),
        target(start.cycle + c.window_cycles) {}

  /// Closes the window that ends at `edge`.
  void close_window(const Edge& edge) {
    WindowSample sample;
    sample.true_delta = sim::delta(prev, edge.pmu);
    sample.delta = add_measurement_noise(sample.true_delta, *config, noise_rng);
    // The window saw attack activity if injected code is running at either
    // edge or an execve fired inside it.
    sample.injected =
        was_injected || edge.injected || edge.execves != prev_execves;
    prev = edge.pmu;
    prev_execves = edge.execves;
    was_injected = edge.injected;

    // Skip empty trailing windows (program already halted).
    if (sample.true_delta[static_cast<std::size_t>(sim::Event::kCycles)] ==
            0 &&
        sample.true_delta[static_cast<std::size_t>(
            sim::Event::kInstructions)] == 0) {
      return;
    }
    out.windows.push_back(sample);
    if (obs::tracing_enabled()) {
      const auto ev = [&](sim::Event e) {
        return static_cast<double>(
            sample.delta[static_cast<std::size_t>(e)]);
      };
      obs::trace_instant("hid.profiler.window", edge.cycle,
                         sample.injected ? 1.0 : 0.0);
      obs::trace_counter("hid.profiler.window.instructions", edge.cycle,
                         ev(sim::Event::kInstructions));
      obs::trace_counter("hid.profiler.window.l1d_misses", edge.cycle,
                         ev(sim::Event::kL1dMisses));
      obs::trace_counter("hid.profiler.window.branch_mispredicts",
                         edge.cycle, ev(sim::Event::kBranchMispredicts));
      obs::trace_counter("hid.profiler.window.spec_instructions",
                         edge.cycle, ev(sim::Event::kSpecInstructions));
    }
  }

  const ProfilerConfig* config;
  ProfileResult out;
  sim::PmuSnapshot prev;
  int prev_execves;
  bool was_injected;
  Rng noise_rng;
  std::uint64_t target;  ///< cycle at which the open window closes
  bool done = false;     ///< stopped: its solo run would end here
};

}  // namespace

void record_run_metrics(const ProfileResult& out) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("hid.profiler.runs").add(1);
  reg.counter("hid.profiler.windows").add(out.windows.size());
  reg.counter("hid.profiler.injected_windows")
      .add(out.injected_window_count());
  static constexpr double kWindowCycleBounds[] = {1e3, 2e3, 5e3, 1e4,
                                                  2e4, 5e4, 1e5};
  auto& hist = reg.histogram("hid.profiler.window_cycles",
                             std::span<const double>(kWindowCycleBounds));
  for (const auto& w : out.windows) {
    hist.observe(static_cast<double>(
        w.true_delta[static_cast<std::size_t>(sim::Event::kCycles)]));
  }
}

ProfileResult profile_run(sim::Kernel& kernel, const std::string& path,
                          const std::vector<std::vector<std::uint8_t>>& args,
                          const ProfilerConfig& config) {
  ProfileResult out =
      std::move(profile_runs(kernel, path, args, {&config, 1}).front());
  record_run_metrics(out);
  return out;
}

std::vector<ProfileResult> profile_runs(
    sim::Kernel& kernel, const std::string& path,
    const std::vector<std::vector<std::uint8_t>>& args,
    std::span<const ProfilerConfig> configs) {
  CRS_ENSURE(!configs.empty(), "profile_runs needs at least one stream");
  const std::uint64_t budget = configs.front().max_instructions;
  for (const ProfilerConfig& c : configs) {
    CRS_ENSURE(c.window_cycles > 0, "window_cycles must be positive");
    CRS_ENSURE(c.max_instructions == budget,
               "the streams of one run share its instruction budget");
  }
  kernel.start(path, args);

  sim::Machine& machine = kernel.machine();
  sim::Cpu& cpu = machine.cpu();
  const auto edge_now = [&] {
    return Edge{machine.pmu().snapshot(), cpu.cycle(), kernel.execve_count(),
                kernel.in_injected_binary()};
  };
  const std::uint64_t start_cycle = cpu.cycle();
  const std::uint64_t start_instr = cpu.retired();
  std::vector<Stream> streams;
  streams.reserve(configs.size());
  const Edge start = edge_now();
  for (const ProfilerConfig& c : configs) streams.emplace_back(c, start);
  // Streams [0, live) still stand for their solo runs.
  std::size_t live = streams.size();

  for (;;) {
    std::uint64_t target = streams.front().target;
    for (std::size_t i = 1; i < live; ++i) {
      target = std::min(target, streams[i].target);
    }
    const auto reason = kernel.run_until_cycle(
        target, budget - (cpu.retired() - start_instr));
    // Later streams stand for runs under other kernel seeds.
    if (live > 1 && kernel.seed_dependent()) live = 1;

    const Edge edge = edge_now();
    const bool ended = reason != sim::StopReason::kCycleLimit;
    for (std::size_t i = 0; i < live; ++i) {
      Stream& s = streams[i];
      if (!ended && s.target > edge.cycle) continue;
      s.close_window(edge);
      if (ended) {
        s.out.stop = reason;
        s.done = true;
      } else if (s.out.windows.size() >= s.config->max_windows) {
        s.out.stop = sim::StopReason::kCycleLimit;
        s.done = true;
      } else {
        s.target = edge.cycle + s.config->window_cycles;
      }
    }
    // The machine stops with stream 0. A later stream is served only if its
    // solo run stops here too; one that stops while stream 0 runs on is not.
    std::size_t same = 1;
    while (same < live && streams[same].done == streams.front().done) ++same;
    live = same;
    if (streams.front().done) break;
  }

  std::vector<ProfileResult> out;
  out.reserve(live);
  const std::string output = kernel.output_string();
  for (std::size_t i = 0; i < live; ++i) {
    ProfileResult& r = streams[i].out;
    r.output = output;
    r.cycles = cpu.cycle() - start_cycle;
    r.instructions = cpu.retired() - start_instr;
    out.push_back(std::move(r));
  }
  obs::MetricsRegistry::instance().counter("hid.profiler.executions").add(1);
  return out;
}

ProfileResult profile_run_strings(sim::Kernel& kernel, const std::string& path,
                                  const std::vector<std::string>& args,
                                  const ProfilerConfig& config) {
  std::vector<std::vector<std::uint8_t>> raw;
  raw.reserve(args.size());
  for (const auto& a : args) raw.emplace_back(a.begin(), a.end());
  return profile_run(kernel, path, raw, config);
}

}  // namespace crs::hid
