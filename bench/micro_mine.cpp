// Micro-benchmarks of the speculation-aware gadget miner: how fast the
// static classifier walks a decoded image, what a full per-binary pipeline
// (classify + dynamic validation + replay synthesis) costs, and what a
// corpus fan-out sustains — the numbers that size a corpus-scale
// `gadget_hunter --corpus` sweep against a CI time budget.
#include <benchmark/benchmark.h>

#include <string>

#include "bench_json_reporter.hpp"
#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "fuzz/generator.hpp"
#include "mine/mine.hpp"
#include "support/rng.hpp"

namespace {

using namespace crs;

std::string biased_source(std::uint64_t seed) {
  Rng rng(derive_seed(seed, 0));
  fuzz::GeneratorOptions opt;
  opt.gadget_bias = 60;
  return fuzz::generate_program(rng, opt).source();
}

// Static classifier only: taint pre-pass + window walks over one decoded
// gadget-biased binary. No simulation.
void BM_MineClassify(benchmark::State& state) {
  const std::string src = biased_source(2026);
  casm::AssembleOptions aopt;
  aopt.name = "bench";
  aopt.link_base = 0x10000;
  const sim::Program program =
      casm::assemble(src + casm::runtime_library(), aopt);
  std::size_t candidates = 0;
  for (auto _ : state) {
    const auto found = mine::classify_program(program);
    candidates += found.size();
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["candidates"] = benchmark::Counter(
      static_cast<double>(candidates) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MineClassify)->Unit(benchmark::kMicrosecond);

// Full pipeline per binary: assemble, classify, mistrain-and-validate every
// candidate, synthesize + self-check the replay programs — the per-binary
// rate of a corpus sweep.
void BM_MineSourceCold(benchmark::State& state) {
  const std::string src = biased_source(2026);
  std::size_t gadgets = 0;
  for (auto _ : state) {
    const auto report = mine::mine_source("bench-cold", src);
    gadgets += report.gadgets.size();
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["gadgets"] = benchmark::Counter(
      static_cast<double>(gadgets) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MineSourceCold)->Unit(benchmark::kMillisecond);

// Corpus fan-out on the thread pool, fresh binaries every iteration:
// items/s is directly the `gadget_hunter --gen N` binaries-per-second rate.
void BM_MineCorpus(benchmark::State& state) {
  std::uint64_t round = 0;
  const std::size_t kBinaries = 6;
  for (auto _ : state) {
    mine::CorpusOptions opt;
    opt.generated = kBinaries;
    opt.seed = 3000 + round++;
    const auto report = mine::mine_corpus(opt);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kBinaries));
}
BENCHMARK(BM_MineCorpus)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return crs::bench::run_micro_benchmarks(argc, argv);
}
