// Micro-benchmarks of campaign attempts (google-benchmark).
//
// BM_CampaignThroughput is the headline number for session reuse:
// attempts/s of a repeated CR-Spectre scenario through one ScenarioSession
// (rollback to the machine baseline + memoized builds). The scenario is
// sized so per-attempt setup (ROP recon/plan, binary builds, machine
// replication) would dominate if it were paid per attempt — exactly the
// regime campaign drivers live in, where thousands of short attempts share
// one configuration.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_json_reporter.hpp"
#include "core/scenario.hpp"
#include "sim/snapshot.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace crs;

core::ScenarioConfig campaign_config() {
  core::ScenarioConfig config;
  config.host = "basicmath";
  config.host_scale = 60;  // short attempts: setup-dominated, like campaigns
  config.secret = "CRS!";
  config.rop_injected = true;
  config.perturb = true;
  config.seed = 42;
  return config;
}

void BM_CampaignThroughput(benchmark::State& state) {
  const core::ScenarioConfig config = campaign_config();
  std::uint64_t seed = config.seed;
  core::ScenarioSession session(config);
  for (auto _ : state) {
    const auto run = session.run_attempt(seed++);
    benchmark::DoNotOptimize(run.attack_launched);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CampaignThroughput)->Unit(benchmark::kMillisecond);

// Ten attempts of one session in the shape of a Fig. 5(b) offline campaign
// (perturbed, loop_count 16, delay 500, branchy mimicry): /0 runs them solo
// (ten run_attempt calls), /1 serves them from one shared execution (one
// run_attempts call). Items are attempts served, so if the session stopped
// sharing, /1 would fall to /0's rate; the perf-smoke ratio gate
// shared-run-over-solo holds /1 at 3x /0 or better.
void BM_SessionAttempts(benchmark::State& state) {
  constexpr std::size_t kAttempts = 10;
  core::ScenarioConfig config;
  config.host_scale = 2000;
  config.rop_injected = true;
  config.perturb = true;
  config.perturb_params.loop_count = 16;
  config.perturb_params.delay = 500;
  config.perturb_params.style = perturb::MimicStyle::kBranchy;
  config.seed = 42;
  const bool shared = state.range(0) != 0;
  core::ScenarioSession session(config);
  std::vector<std::uint64_t> seeds(kAttempts);
  std::uint64_t next = config.seed;
  std::int64_t served = 0;
  for (auto _ : state) {
    for (std::uint64_t& seed : seeds) seed = next++;
    if (shared) {
      const auto runs = session.run_attempts(seeds, config.perturb_params);
      benchmark::DoNotOptimize(runs.data());
      served += static_cast<std::int64_t>(runs.size());
    } else {
      for (const std::uint64_t seed : seeds) {
        const auto run = session.run_attempt(seed);
        benchmark::DoNotOptimize(run.attack_launched);
        ++served;
      }
    }
  }
  state.SetItemsProcessed(served);
}
BENCHMARK(BM_SessionAttempts)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Pages restored per second by Machine::restore on a machine dirtied by a
// real (short) workload run — the raw cost of one rollback, isolated from
// the attempt that dirtied it.
void BM_SnapshotRestore(benchmark::State& state) {
  workloads::WorkloadOptions opt;
  opt.scale = 200;
  opt.secret = "CRS!";
  const auto prog = workloads::build_workload("sha", opt);
  sim::Machine machine;
  sim::Kernel kernel(machine);
  kernel.register_binary("/bin/w", prog);
  sim::MachineSnapshot snap = machine.snapshot();
  std::int64_t pages = 0;
  for (auto _ : state) {
    state.PauseTiming();
    kernel.reset_for_attempt(7);
    kernel.start_with_strings("/bin/w", {"w"});
    kernel.run(150'000);
    state.ResumeTiming();
    machine.restore(snap);
    pages += static_cast<std::int64_t>(snap.last_restored_pages());
  }
  state.SetItemsProcessed(pages);
}
BENCHMARK(BM_SnapshotRestore)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  return crs::bench::run_micro_benchmarks(argc, argv);
}
