// Shared helpers for the figure/table benches.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/campaign.hpp"
#include "core/corpus.hpp"
#include "core/report.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/flags.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"

namespace crs::bench {

/// Common bench CLI flags: `--threads N` installs a process-wide
/// worker-count override (beats CRS_THREADS) and `--bench-json <path>`
/// enables machine-readable perf records — one JSON line per benchmark
/// appended to <path>, so future PRs can track the trajectory in
/// BENCH_*.json files. A bad command line (a bad count, a flag without its
/// value, an argument nobody parses) exits 2 before the bench does any work.
class BenchIo {
 public:
  /// A figure bench's whole command line: the two flags and nothing else.
  BenchIo(int argc, char** argv) { parse(argc, argv, /*keep_rest=*/false); }

  /// For a binary with a parser of its own (google-benchmark's, the load
  /// driver's): strips the two flags and leaves every other argument, in
  /// order, in argv[1, argc).
  static BenchIo strip(int& argc, char** argv) {
    BenchIo io;
    argc = io.parse(argc, argv, /*keep_rest=*/true);
    return io;
  }

  bool json_enabled() const { return !json_path_.empty(); }
  const std::string& json_path() const { return json_path_; }

  /// Appends `{"name":...,"wall_ms":...,"items_per_s":...,"config":{...}}`
  /// to the JSON file (core::append_bench_record, which throws when the
  /// file cannot be written); no-op when --bench-json was not given. The
  /// config object records the process-wide defaults (threads, exec engine,
  /// mitigations) — benchmarks that pin a different engine per arg encode
  /// the variant in the name, as BM_CpuThroughput does.
  void emit(const std::string& name, double wall_ms,
            double items_per_s) const {
    if (!json_path_.empty()) {
      core::append_bench_record(json_path_, name, wall_ms, items_per_s);
    }
  }

  /// One JSON line per campaign attempt with wall and simulated time — the
  /// only surface AttemptRecord::wall_ms ever reaches (the obs registry and
  /// traces stay wall-clock-free by contract). Throws crs::Error when the
  /// file cannot be written, as emit does.
  void emit_attempts(const std::string& name,
                     const core::CampaignResult& result) const {
    if (json_path_.empty()) return;
    const std::string prefix = "{\"name\":\"" + obs::json_escape(name);
    const std::string config = core::bench_config_json();
    std::string lines;
    for (const auto& a : result.attempts) {
      lines += prefix + ":attempt" + std::to_string(a.attempt) +
               "\",\"wall_ms\":" + fixed(a.wall_ms, 3) +
               ",\"sim_cycles\":" + std::to_string(a.sim_cycles) +
               ",\"detection_rate\":" + fixed(a.detection_rate, 6) +
               ",\"config\":" + config + "}\n";
    }
    core::append_text_file(json_path_, lines);
  }

 private:
  BenchIo() = default;

  /// Returns the new argc: 1 plus the arguments kept. A usage error exits
  /// here, as the benches' mains catch nothing.
  int parse(int argc, char** argv, bool keep_rest) {
    FlagCursor args(argc, argv);
    int kept = 1;
    try {
      while (args.more()) {
        unsigned threads = 0;
        if (args.take_number("--threads", threads)) {
          set_thread_override(threads);
        } else if (args.take_value("--bench-json", json_path_)) {
        } else if (keep_rest) {
          argv[kept++] = args.take_raw();
        } else {
          args.unknown();
        }
      }
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
    return kept;
  }

  std::string json_path_;
};

/// Wall-clock stopwatch for whole-figure timing.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Paper §III-A: 2000 samples per class, 70/30 split downstream.
inline core::CorpusConfig paper_corpus_config() {
  core::CorpusConfig cc;
  cc.windows_per_class = 2000;
  cc.host_scale = 400;
  return cc;
}

inline std::string pct(double fraction) { return fixed(100.0 * fraction, 1); }

inline void print_header(const std::string& title,
                         const std::string& paper_reference) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_reference.c_str());
  std::printf("==============================================================\n");
}

inline void shape_check(const std::string& claim, bool holds) {
  std::printf("[shape %-4s] %s\n", holds ? "OK" : "DIFF", claim.c_str());
}

}  // namespace crs::bench
