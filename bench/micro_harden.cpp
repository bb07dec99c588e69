// Micro-benchmarks of the host-hardening subsystem: what the hardening
// presets cost a benign host (the canary epilogue checks and the relocated
// loader paths must stay cheap enough to leave on everywhere), and how fast
// the speculative-probing leak stage defeats full hardening end to end.
//
// The perf-smoke baselines gate two things here:
//   * overhead ratios — hardened benign throughput over unhardened must not
//     collapse (canary >= 0.80x, full >= 0.65x of the none-preset rate);
//   * probe leak rate — BM_ProbeLeakRate counts only *successful* leak-stage
//     attacks (probe found the base AND the patched payload recovered the
//     secret) as items, so a broken probe drives items/s to zero and trips
//     the absolute floor.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_json_reporter.hpp"
#include "core/scenario.hpp"
#include "harden/config.hpp"
#include "hid/profiler.hpp"
#include "sim/kernel.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace crs;

const char* preset_for_arg(std::int64_t arg) {
  // Stable arg -> preset map, not harden::preset_names() display order: the
  // perf-smoke gates read arg 1 as canary and arg 3 as full.
  switch (arg) {
    case 0: return "none";
    case 1: return "canary";
    case 2: return "aslr";
    default: return "full";
  }
}

// One benign host run per iteration under a hardening preset. Arg 0 is the
// unhardened baseline the overhead ratio gates divide by.
void BM_HardenedBenign(benchmark::State& state) {
  const auto harden = harden::preset(preset_for_arg(state.range(0)));
  workloads::WorkloadOptions wopt;
  wopt.scale = 4000;
  wopt.secret = "BENCH-SECRET";
  wopt.canary = harden.canary;
  const auto binary = workloads::build_workload("basicmath", wopt);
  Rng rng(2026);
  for (auto _ : state) {
    sim::KernelConfig kcfg;
    kcfg.seed = rng.next_u64();
    harden.apply(kcfg);
    sim::Machine machine;
    sim::Kernel kernel(machine, kcfg);
    kernel.register_binary("/bin/app", binary);
    const auto profile = hid::profile_run_strings(
        kernel, "/bin/app", {"basicmath", "benign-input"}, {});
    if (profile.stop != sim::StopReason::kHalted) {
      state.SkipWithError("hardened benign run did not halt");
      return;
    }
    benchmark::DoNotOptimize(profile);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(preset_for_arg(state.range(0)));
}
BENCHMARK(BM_HardenedBenign)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

// Full leak-stage attack against the full hardening preset, fresh seed every
// iteration (fresh ASLR deltas + canary). Items = successful end-to-end
// leaks only, so items/s is the probe leak *rate* scaled by run cost.
void BM_ProbeLeakRate(benchmark::State& state) {
  core::ScenarioConfig cfg;
  cfg.host = "basicmath";
  cfg.host_scale = 2000;
  cfg.secret = "HARDEN-SECRET-16";
  cfg.rop_injected = true;
  cfg.harden = harden::preset("full");
  cfg.leak_stage = true;
  std::uint64_t seed = 5000;
  std::int64_t leaks = 0;
  for (auto _ : state) {
    cfg.seed = seed++;
    const auto run = core::run_scenario(cfg);
    if (run.leak_stage_ran && run.secret_recovered) ++leaks;
    benchmark::DoNotOptimize(run);
  }
  state.SetItemsProcessed(leaks);
  state.counters["leak_rate"] = benchmark::Counter(
      state.iterations() == 0
          ? 0.0
          : static_cast<double>(leaks) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_ProbeLeakRate)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return crs::bench::run_micro_benchmarks(argc, argv);
}
