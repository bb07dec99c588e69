// google-benchmark reporter emitting the repo-wide perf-record format: one
// `{"name":...,"wall_ms":...,"items_per_s":...}` line per benchmark run,
// appended to the --bench-json file. Shared by the micro benches; the
// figure benches emit the same lines through bench::BenchIo directly.
// Under --benchmark_repetitions, a benchmark is recorded once, by its
// median aggregate under its plain name, so one fast or slow repetition
// cannot move a perf-smoke ratio gate.
#pragma once

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.hpp"

namespace crs::bench {

/// Display reporter that forwards to the default console reporter and tees
/// every run into the JSON file. (A plain file_reporter would be ignored by
/// google-benchmark unless --benchmark_out is also given.)
class JsonTeeReporter : public benchmark::BenchmarkReporter {
 public:
  explicit JsonTeeReporter(const BenchIo& io)
      : io_(io), console_(benchmark::CreateDefaultDisplayReporter()) {}

  bool ReportContext(const Context& context) override {
    console_->SetOutputStream(&GetOutputStream());
    console_->SetErrorStream(&GetErrorStream());
    return console_->ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    console_->ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      const bool repeated = run.repetitions > 1;
      if (repeated && (run.run_type != Run::RT_Aggregate ||
                       run.aggregate_name != "median")) {
        continue;
      }
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      const double wall_ms = run.real_accumulated_time / iters * 1e3;
      double items_per_s = 0.0;
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) items_per_s = it->second;
      io_.emit(repeated ? run.run_name.str() : run.benchmark_name(), wall_ms,
               items_per_s);
    }
  }

  void Finalize() override { console_->Finalize(); }

 private:
  const BenchIo& io_;
  std::unique_ptr<benchmark::BenchmarkReporter> console_;
};

/// Shared main body for the google-benchmark binaries: strips the repo
/// flags (--threads / --bench-json), hands the rest to
/// benchmark::Initialize, and mirrors every run into the JSON file when one
/// was requested.
inline int run_micro_benchmarks(int argc, char** argv) {
  BenchIo io = BenchIo::strip(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  if (io.json_enabled()) {
    JsonTeeReporter tee(io);
    benchmark::RunSpecifiedBenchmarks(&tee);
  } else {
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace crs::bench
