// Micro-benchmarks of the ML library (google-benchmark).
#include <benchmark/benchmark.h>

#include "bench_json_reporter.hpp"
#include "hid/detector.hpp"
#include "hid/features.hpp"
#include "ml/dataset.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "support/rng.hpp"

namespace {

using namespace crs;

ml::Dataset blobs(std::size_t n, std::size_t dims, std::uint64_t seed) {
  Rng rng(seed);
  ml::Dataset d;
  std::vector<double> row(dims);
  for (std::size_t i = 0; i < n; ++i) {
    const int label = static_cast<int>(i % 2);
    for (auto& v : row) v = rng.next_gaussian(label * 3.0, 1.0);
    d.append(row, label);
  }
  return d;
}

void BM_LogisticFit(benchmark::State& state) {
  const auto d = blobs(2000, 6, 1);
  for (auto _ : state) {
    ml::LogisticRegression lr;
    lr.fit(d.x, d.y);
    benchmark::DoNotOptimize(lr.bias());
  }
}
BENCHMARK(BM_LogisticFit)->Unit(benchmark::kMillisecond);

void BM_SvmFit(benchmark::State& state) {
  const auto d = blobs(2000, 6, 2);
  for (auto _ : state) {
    ml::LinearSvm svm;
    svm.fit(d.x, d.y);
    benchmark::DoNotOptimize(svm.margin(d.x.row(0)));
  }
}
BENCHMARK(BM_SvmFit)->Unit(benchmark::kMillisecond);

void BM_MlpFit(benchmark::State& state) {
  const auto d = blobs(1000, 6, 3);
  for (auto _ : state) {
    ml::Mlp mlp(ml::mlp3_config());
    mlp.fit(d.x, d.y);
    benchmark::DoNotOptimize(mlp.parameter_count());
  }
}
BENCHMARK(BM_MlpFit)->Unit(benchmark::kMillisecond);

void BM_MlpPartialFit(benchmark::State& state) {
  const auto d = blobs(1000, 6, 4);
  const auto batch = blobs(300, 6, 5);
  ml::Mlp mlp(ml::mlp3_config());
  mlp.fit(d.x, d.y);
  for (auto _ : state) {
    mlp.partial_fit(batch.x, batch.y);
  }
}
BENCHMARK(BM_MlpPartialFit)->Unit(benchmark::kMillisecond);

void BM_MlpPredict(benchmark::State& state) {
  const auto d = blobs(1000, 6, 6);
  ml::Mlp mlp(ml::nn6_config());
  mlp.fit(d.x, d.y);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.predict_proba(d.x.row(i)));
    i = (i + 1) % d.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MlpPredict);

// Dense square matmul across sizes (items = multiply-accumulates), tracking
// the blocked + transposed Matrix::multiply.
void BM_MatrixMultiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(42);
  ml::Matrix a(n, n);
  ml::Matrix b(n, n);
  for (auto& v : a.data()) v = rng.next_gaussian(0.0, 1.0);
  for (auto& v : b.data()) v = rng.next_gaussian(0.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.multiply(b));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_MatrixMultiply)
    ->Arg(32)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_FisherSelection(benchmark::State& state) {
  const auto d = blobs(4000, 26, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::top_k_features(d, 4));
  }
}
BENCHMARK(BM_FisherSelection)->Unit(benchmark::kMicrosecond);

// Deploying a trained HID on a paper-sized corpus (2000 windows/class, full
// universe width): /0 is a fresh HidDetector::fit, /1 a trained_detector()
// memo hit on the same config and rows, i.e. the key copy, the exact-key
// lookup and the deep copy that every campaign after the first pays.
void BM_DetectorFit(benchmark::State& state) {
  const auto train = blobs(4000, hid::feature_universe_size(), 8);
  hid::DetectorConfig config;
  config.features = hid::paper_feature_indices();
  const bool memo = state.range(0) == 1;
  if (memo) hid::trained_detector(config, train);  // fill the memo
  for (auto _ : state) {
    if (memo) {
      const hid::HidDetector d = hid::trained_detector(config, train);
      benchmark::DoNotOptimize(d.training_size());
    } else {
      hid::HidDetector d(config);
      d.fit(train);
      benchmark::DoNotOptimize(d.training_size());
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DetectorFit)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return crs::bench::run_micro_benchmarks(argc, argv);
}
