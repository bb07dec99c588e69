// Shared pieces of the end-to-end benchmark: wall clock, the in-memory span
// tracer, order statistics, the FNV digest and the result report.
//
// Spans are wall-clock and therefore non-deterministic; they live only in
// this benchmark's memory and its own trace file, never in obs::TraceSink,
// so the repository's golden traces and deterministic metrics are untouched.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace crbench {

using Clock = std::chrono::steady_clock;

/// Seconds since an arbitrary process-wide origin.
double now_s();

inline double elapsed_ms(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Tracing

struct Span {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;         ///< index into the span list, -1 = root
  std::uint64_t op = 0;    ///< attempt or job id the span belongs to
};

/// In-memory span recorder. Disabled, every call is a no-op branch.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool on) { enabled_.store(on); }
  bool enabled() const { return enabled_.load(); }

  /// Opens a span on the calling thread (parent = the thread's innermost
  /// open span); returns its index or -1 when disabled.
  int open(const std::string& name, std::uint64_t op);
  void close(int index);
  /// Records a finished interval directly (e.g. a job's send-to-result).
  void record(const std::string& name, double start_s, double end_s,
              std::uint64_t op);

  std::vector<Span> spans() const;

  /// Writes the spans as JSON lines, first line marking the file as
  /// wall-clock and non-deterministic.
  void write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span around one public call.
class Scoped {
 public:
  explicit Scoped(const std::string& name, std::uint64_t op = 0)
      : index_(Tracer::instance().open(name, op)) {}
  ~Scoped() { Tracer::instance().close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  int index_;
};

/// Self time per span name: a span's duration minus the part of it that
/// its direct children cover.
std::map<std::string, double> self_time_ms(const std::vector<Span>& spans);

/// Share of [start_s, end_s] covered by no root span.
double unattributed_frac(const std::vector<Span>& spans, double start_s,
                         double end_s);

/// Per layer (a span name's first component), the share of [start_s,
/// end_s] during which at least one of its spans was open on any thread.
std::map<std::string, double> wall_share_by_layer(
    const std::vector<Span>& spans, double start_s, double end_s);

// ---------------------------------------------------------------------------
// Statistics

double median(std::vector<double> xs);
/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty input.
double percentile(std::vector<double> xs, double p);

/// The tail the benchmark reports: p95 when at least ten samples lie beyond
/// it, otherwise the highest percentile that still has ten samples beyond
/// it, otherwise (fewer than eleven samples) the median.
struct Tail {
  double value = 0.0;
  double pct = 50.0;   ///< the percentile actually reported
};
Tail tail(const std::vector<double>& xs);

// ---------------------------------------------------------------------------
// Deterministic digest (FNV-1a 64)

class Digest {
 public:
  Digest& bytes(const void* data, std::size_t n);
  Digest& str(const std::string& s) { return bytes(s.data(), s.size()); }
  Digest& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Digest& f64(double v);  ///< rounded to 1e-9 so the text form is stable
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::string hex64(std::uint64_t v);

// ---------------------------------------------------------------------------
// Result report

struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  ///< how it was measured (printed, not in the JSON)
};

struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few oracle violations
  std::map<std::string, Metric> metrics;
  std::vector<std::string> digest_lines;
  std::vector<std::string> info_lines;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples, const std::string& note = "");
  /// Counts one checked operation; `ok == false` records a failure.
  void check(bool ok, const std::string& what);
  void info(const std::string& line) { info_lines.push_back(line); }
  void digest(const std::string& line) { digest_lines.push_back(line); }
};

/// Peak resident set of this process, in MB.
double peak_rss_mb();

/// Formats with printf semantics into a std::string.
std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

/// Options every workload receives.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smallest sizes that still touch every layer (self-test).
  bool tiny = false;
  /// Corrupts one expected output so the self-test can watch the oracle
  /// catch it.
  bool plant_fault = false;
  /// defense-grid child mode: run one cold pass, print its seconds, exit.
  int cold_pass = -1;
  std::string trace_path;
  std::string self_exe;
};

}  // namespace crbench
