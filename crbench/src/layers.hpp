// Per-layer samples gathered outside-in: every timed call into a module's
// public functions adds one sample under the metric it feeds, and the
// traced run folds the samples into the per-layer metrics.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/scenario.hpp"

namespace crbench {

class Samples {
 public:
  void add(const std::string& key, double v);
  std::vector<double> get(const std::string& key) const;
  bool has(const std::string& key) const;
  double sum(const std::string& key) const;
  /// Copy of every sample list, and its inverse for the listed keys.
  std::map<std::string, std::vector<double>> snapshot() const;
  void restore(const std::map<std::string, std::vector<double>>& saved);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<double>> data_;
};

Samples& samples();

/// Runs `f` inside a span named `key` and adds its duration to
/// samples()[key] in milliseconds.
template <class F>
decltype(auto) timed(const std::string& key, F&& f, std::uint64_t op = 0) {
  struct Guard {
    const std::string& key;
    Clock::time_point t0 = Clock::now();
    Scoped span;
    Guard(const std::string& k, std::uint64_t o) : key(k), span(k, o) {}
    ~Guard() { samples().add(key, elapsed_ms(t0)); }
  } guard(key, op);
  return f();
}

/// Memo-cache deltas of the scenario layer between two points.
struct MemoDelta {
  crs::core::ScenarioMemoStats before;
  MemoDelta() : before(crs::core::scenario_memo_stats()) {}
  /// Adds workload/attack/plan build counts and memo lookups to samples().
  void commit() const;
};

/// The per-layer metric table: name, unit, direction and which end-to-end
/// metric on which workload it is predicted to move.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* better;
  const char* moves;
};
const std::vector<LayerMetric>& layer_table();

/// Folds samples() into every per-layer metric of `report`. Metrics whose
/// samples came from the layer census rather than the workload's own
/// traffic are marked so in their note.
void fold_layers(Report& report, const std::vector<std::string>& census_keys);

}  // namespace crbench
