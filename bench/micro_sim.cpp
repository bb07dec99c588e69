// Micro-benchmarks of the simulation substrate (google-benchmark).
#include <benchmark/benchmark.h>

#include "attack/spectre.hpp"
#include "bench_json_reporter.hpp"
#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "core/corpus.hpp"
#include "core/scenario.hpp"
#include "mitigate/fence_pass.hpp"
#include "rop/gadget.hpp"
#include "sim/block_cache.hpp"
#include "sim/kernel.hpp"
#include "support/parallel.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace crs;

// Steady-state retired-instructions/s: one machine built up front, each
// iteration runs a fixed instruction chunk (the workload restarts in-place
// when it halts, like a looping service). The argument selects the engine
// tier so the perf-smoke gate can form ratios from one benchmark:
//   0 = interpreter, decode cache off (the pre-PR-1 baseline)
//   1 = interpreter, decode cache on  (the blocks denominator)
//   2 = threaded-code block engine
void BM_CpuThroughput(benchmark::State& state) {
  workloads::WorkloadOptions opt;
  opt.scale = 100000;
  const auto prog = workloads::build_workload("bitcount", opt);
  sim::MachineConfig mc;
  mc.cpu.decode_cache = state.range(0) != 0;
  mc.cpu.exec_engine =
      state.range(0) == 2 ? sim::ExecEngine::kBlocks : sim::ExecEngine::kInterp;
  sim::Machine machine(mc);
  sim::Kernel kernel(machine);
  kernel.register_binary("/bin/w", prog);
  kernel.start_with_strings("/bin/w", {"w"});
  constexpr std::uint64_t kChunk = 500'000;
  std::int64_t executed = 0;
  for (auto _ : state) {
    const std::uint64_t before = machine.cpu().retired();
    kernel.run(kChunk);
    if (machine.cpu().halted()) kernel.start_with_strings("/bin/w", {"w"});
    executed += static_cast<std::int64_t>(machine.cpu().retired() - before);
  }
  state.SetItemsProcessed(executed);
}
BENCHMARK(BM_CpuThroughput)
    ->Arg(2)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond);

// Retired instructions/s of warm attempts in the shape of crbench's offline
// campaign (Fig. 5(b)): the default basicmath host with the ROP-injected
// attack, perturbed by the static branchy variant (loop_count 16, delay
// 500), under the HID profiler. Unlike BM_CpuThroughput's predictable host,
// this is the mix campaigns spend their time in: mispredicted bounds checks
// with their wrong-path episodes, short branchy blocks, calls and returns,
// and the per-attempt rollback that makes every code page retranslate.
void BM_AttemptThroughput(benchmark::State& state) {
  core::ScenarioConfig config;
  config.rop_injected = true;
  config.perturb = true;
  config.perturb_params.loop_count = 16;
  config.perturb_params.delay = 500;
  config.perturb_params.style = perturb::MimicStyle::kBranchy;
  config.seed = 42;
  core::ScenarioSession session(config);
  std::uint64_t seed = config.seed;
  session.run_attempt(seed++);  // warm the build memos
  std::int64_t retired = 0;
  for (auto _ : state) {
    const core::ScenarioRun run = session.run_attempt(seed++);
    retired += static_cast<std::int64_t>(run.profile.instructions);
  }
  state.SetItemsProcessed(retired);
}
BENCHMARK(BM_AttemptThroughput)->Unit(benchmark::kMillisecond);

// Block-translation cost (blocks/s) and steady-state hit rate. Each
// iteration dirties the hot page's version (a same-value byte write) so the
// next acquire takes the full guard-miss retranslation path — the cost a
// self-modifying store or fence-pass rewrite inflicts at runtime.
void BM_BlockTranslation(benchmark::State& state) {
  workloads::WorkloadOptions opt;
  opt.scale = 100000;
  const auto prog = workloads::build_workload("bitcount", opt);
  sim::MachineConfig mc;
  mc.cpu.exec_engine = sim::ExecEngine::kBlocks;  // whatever the default
  sim::Machine machine(mc);
  sim::Kernel kernel(machine);
  kernel.register_binary("/bin/w", prog);
  kernel.start_with_strings("/bin/w", {"w"});
  kernel.run(50'000);  // warm the block cache over the hot loop
  sim::BlockCache* cache = machine.cpu().block_cache();
  const std::uint64_t entry = kernel.main_image().lo;
  for (auto _ : state) {
    machine.memory().write_u8(entry, machine.memory().read_u8(entry));
    benchmark::DoNotOptimize(cache->acquire(entry));
  }
  state.SetItemsProcessed(state.iterations());
  const auto& stats = cache->stats();
  state.counters["hit_rate"] = benchmark::Counter(
      static_cast<double>(stats.hits) /
      static_cast<double>(stats.hits + stats.translations +
                          stats.retranslations));
}
BENCHMARK(BM_BlockTranslation);

// Thread-count sweep over the parallel experiment runner: a small benign
// corpus build (windows/s). Identical output for every Arg by construction;
// wall time is what varies with the worker count.
void BM_CorpusThreads(benchmark::State& state) {
  core::CorpusConfig cc;
  cc.windows_per_class = 64;
  cc.host_scale = 400;
  cc.seed = 9;
  std::int64_t windows = 0;
  for (auto _ : state) {
    set_thread_override(static_cast<unsigned>(state.range(0)));
    const auto corpus = core::build_benign_corpus(cc);
    set_thread_override(0);
    windows += static_cast<std::int64_t>(corpus.size());
  }
  state.SetItemsProcessed(windows);
}
BENCHMARK(BM_CorpusThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_CacheAccess(benchmark::State& state) {
  sim::MemoryHierarchy hier;
  std::uint64_t addr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hier.access_data(addr));
    addr = (addr + 64) & 0xFFFFF;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_BranchPredictor(benchmark::State& state) {
  sim::BranchPredictor bp;
  std::uint64_t pc = 0x10000;
  bool taken = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bp.pht().predict_taken(pc));
    bp.pht().update(pc, taken);
    taken = !taken;
    pc += 8;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BranchPredictor);

void BM_Assemble(benchmark::State& state) {
  workloads::WorkloadOptions opt;
  opt.scale = 100;
  const auto source = workloads::generate_workload_source("sha", opt) +
                      casm::runtime_library();
  for (auto _ : state) {
    benchmark::DoNotOptimize(casm::assemble(source));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Assemble)->Unit(benchmark::kMicrosecond);

void BM_GadgetScan(benchmark::State& state) {
  workloads::WorkloadOptions opt;
  opt.scale = 100;
  const auto prog = workloads::build_workload("basicmath", opt);
  rop::GadgetScanner scanner;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scanner.scan(prog));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GadgetScan)->Unit(benchmark::kMicrosecond);

void BM_AttackBinaryGeneration(benchmark::State& state) {
  attack::AttackConfig cfg;
  cfg.embed_secret = "MICROBENCH-SECRT";
  cfg.perturb = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::build_attack_binary(cfg));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttackBinaryGeneration)->Unit(benchmark::kMicrosecond);

// Throughput of the load-time fence-insertion hardening pass (pages/s):
// one decode+classify sweep over a real workload image, the cost every
// hardened load pays at map time.
void BM_FenceInsertion(benchmark::State& state) {
  workloads::WorkloadOptions opt;
  opt.scale = 1000;
  const auto pristine = workloads::build_workload("bitcount", opt);
  std::uint64_t pages = 0;
  for (auto _ : state) {
    sim::Program prog = pristine;  // rewrite a fresh copy each iteration
    const auto stats = mitigate::insert_bounds_fences(prog);
    benchmark::DoNotOptimize(stats.fences_planted);
    pages += stats.pages_scanned;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pages));
}
BENCHMARK(BM_FenceInsertion)->Unit(benchmark::kMicrosecond);

void BM_SpectreEndToEnd(benchmark::State& state) {
  attack::AttackConfig cfg;
  cfg.embed_secret = "MICROBENCH-SECRT";
  cfg.secret_length = 16;
  const auto prog = attack::build_attack_binary(cfg);
  for (auto _ : state) {
    sim::Machine machine;
    sim::Kernel kernel(machine);
    kernel.register_binary("/bin/a", prog);
    kernel.start_with_strings("/bin/a", {});
    kernel.run(1'000'000'000);
    benchmark::DoNotOptimize(kernel.output_string());
  }
  state.SetItemsProcessed(state.iterations() * 16);  // bytes leaked
}
BENCHMARK(BM_SpectreEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return crs::bench::run_micro_benchmarks(argc, argv);
}
