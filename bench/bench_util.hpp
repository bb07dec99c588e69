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
#include "support/parallel.hpp"
#include "support/strings.hpp"

namespace crs::bench {

/// Common bench CLI flags, stripped from argv before anything else parses
/// it: `--threads N` installs a process-wide worker-count override (beats
/// CRS_THREADS) and `--bench-json <path>` enables machine-readable perf
/// records — one JSON line per benchmark appended to <path>, so future PRs
/// can track the trajectory in BENCH_*.json files.
class BenchIo {
 public:
  BenchIo(int& argc, char** argv) {
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--threads" && i + 1 < argc) {
        set_threads(argv[++i]);
      } else if (arg.rfind("--threads=", 0) == 0) {
        set_threads(arg.substr(10));
      } else if (arg == "--bench-json" && i + 1 < argc) {
        json_path_ = argv[++i];
      } else if (arg.rfind("--bench-json=", 0) == 0) {
        json_path_ = arg.substr(13);
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
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
  /// A bad count is a usage error: the benches' mains catch nothing.
  static void set_threads(const std::string& value) {
    try {
      set_thread_override(parse_number<unsigned>("--threads", value));
    } catch (const Error& e) {
      std::fprintf(stderr, "%s\n", e.what());
      std::exit(2);
    }
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
