// MetricsRegistry: process-wide counters, gauges and fixed-bucket
// histograms.
//
// Determinism contract: counters and histogram buckets are unsigned-integer
// accumulators updated with commutative atomic adds, so totals are
// independent of thread interleaving and CRS_THREADS. Gauges (last-value
// semantics) must only be written from serial contexts. Nothing in the
// registry ever records wall-clock time — wall timings flow exclusively
// through the --bench-json plumbing so metric CSVs stay byte-reproducible.
//
// Lookup by name takes a mutex; hot paths (per cache access, per
// instruction) keep plain struct counters locally and publish once per run
// via the *_metrics() helpers instead of touching the registry.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace crs::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Histogram over fixed, ascending upper bounds plus an implicit +inf
/// overflow bucket. Only integer bucket counts are stored (no value sums:
/// floating-point accumulation order would break thread-count invariance).
class Histogram {
 public:
  explicit Histogram(std::span<const double> upper_bounds);

  void observe(double v) {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Index of the bucket `v` falls into: the first bound with v <= bound,
  /// or bounds().size() for the overflow bucket.
  std::size_t bucket_index(double v) const;

  const std::vector<double>& bounds() const { return bounds_; }
  std::size_t bucket_total() const { return bounds_.size() + 1; }
  std::uint64_t bucket_count(std::size_t i) const;
  std::uint64_t total_count() const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
};

/// One row of the rendered registry (shared by csv() and crs_top).
struct MetricRow {
  std::string name;
  std::string kind;   // counter | gauge | histogram
  std::string field;  // value | le_<bound> | le_inf | count
  std::string value;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Find-or-create. References stay valid until clear(); reset_values()
  /// preserves identity, so library code may cache them per run but tests
  /// should prefer reset_values() over clear() between cases.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Bounds are fixed at first creation; later calls with the same name
  /// must pass identical bounds (enforced).
  Histogram& histogram(std::string_view name,
                       std::span<const double> upper_bounds);

  /// Rows sorted by (name, field registration order) — deterministic.
  std::vector<MetricRow> rows() const;

  /// CSV: `metric,kind,field,value` header plus one line per row.
  std::string csv() const;

  std::size_t size() const;

  /// Zeroes every value but keeps the metric set (and outstanding
  /// references) intact.
  void reset_values();

  /// Drops all metrics. Invalidates references; only safe at quiesced
  /// points with no cached references in flight.
  void clear();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Deterministic number rendering shared with the trace exporters.
std::string format_metric_number(double v);

}  // namespace crs::obs
