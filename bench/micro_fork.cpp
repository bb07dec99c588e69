// Micro-benchmarks of machine replication (google-benchmark).
//
// BM_MachineFork is the headline number: machines built per second, with
// Arg(0) constructing a clean Machine(config) (the library's way to a
// clean machine: O(metadata), every page aliases the zero page) and Arg(1)
// forking a frozen baseline (the same tables plus the micro-architectural
// copy). BM_SessionResidentBytes reports the private footprint of a clean
// machine after a real workload run (manual time is pinned to 1
// s/iteration, so items_per_s IS mean resident bytes — exact and
// machine-independent). BM_SessionFanout measures the end-to-end unit
// campaign drivers replicate — ScenarioSession build plus one attempt.
#include <benchmark/benchmark.h>

#include "bench_json_reporter.hpp"
#include "core/scenario.hpp"
#include "sim/snapshot.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace crs;

void BM_MachineFork(benchmark::State& state) {
  const bool fork = state.range(0) != 0;
  const sim::MachineConfig config;
  const auto base = sim::Machine(config).freeze();
  for (auto _ : state) {
    if (fork) {
      sim::Machine machine(*base);
      benchmark::DoNotOptimize(machine.memory().resident_bytes());
    } else {
      sim::Machine machine(config);
      benchmark::DoNotOptimize(machine.memory().resident_bytes());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineFork)->Arg(1)->Arg(0)->Unit(benchmark::kMicrosecond);

/// Runs one short real workload on a clean machine and reports the bytes of
/// page data the machine privately owns afterwards: its promoted frames.
void BM_SessionResidentBytes(benchmark::State& state) {
  std::int64_t bytes = 0;
  for (auto _ : state) {
    sim::Machine machine;
    sim::Kernel kernel(machine);
    workloads::WorkloadOptions opt;
    opt.scale = 4;
    kernel.register_binary("/bin/w", workloads::build_workload("basicmath", opt));
    kernel.start_with_strings("/bin/w", {"benign"});
    kernel.run(200'000'000);
    bytes += static_cast<std::int64_t>(machine.memory().resident_bytes());
    state.SetIterationTime(1.0);  // 1 s/iter: items_per_s == resident bytes
  }
  state.SetItemsProcessed(bytes);
}
BENCHMARK(BM_SessionResidentBytes)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

core::ScenarioConfig fanout_config() {
  core::ScenarioConfig config;
  config.host = "basicmath";
  config.host_scale = 60;  // short attempts: replication-dominated
  config.secret = "CRS!";
  config.rop_injected = true;
  config.perturb = true;
  config.seed = 42;
  return config;
}

/// The unit campaign drivers replicate per worker: build a ScenarioSession
/// (machine + kernel + memoized binaries) and run one attempt.
void BM_SessionFanout(benchmark::State& state) {
  const core::ScenarioConfig config = fanout_config();
  core::warm_scenario_memo(config);  // isolate replication from first-build
  std::uint64_t seed = config.seed;
  for (auto _ : state) {
    core::ScenarioSession session(config);
    const auto run = session.run_attempt(seed++);
    benchmark::DoNotOptimize(run.attack_launched);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SessionFanout)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return crs::bench::run_micro_benchmarks(argc, argv);
}
