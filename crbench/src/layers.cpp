#include "layers.hpp"

#include <algorithm>
#include <numeric>

namespace crbench {

void Samples::add(const std::string& key, double v) {
  std::lock_guard<std::mutex> lock(mutex_);
  data_[key].push_back(v);
}

std::vector<double> Samples::get(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = data_.find(key);
  return it == data_.end() ? std::vector<double>{} : it->second;
}

bool Samples::has(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = data_.find(key);
  return it != data_.end() && !it->second.empty();
}

double Samples::sum(const std::string& key) const {
  const std::vector<double> v = get(key);
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::map<std::string, std::vector<double>> Samples::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return data_;
}

void Samples::restore(const std::map<std::string, std::vector<double>>& saved) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, values] : saved) data_[key] = values;
}

Samples& samples() {
  static Samples s;
  return s;
}

void MemoDelta::commit() const {
  const crs::core::ScenarioMemoStats now = crs::core::scenario_memo_stats();
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  samples().add("workloads.builds",
                d(now.workload_misses, before.workload_misses));
  samples().add("attack.builds", d(now.attack_misses, before.attack_misses));
  samples().add("rop.plans", d(now.plan_misses, before.plan_misses));
  const double hits = d(now.workload_hits, before.workload_hits) +
                      d(now.attack_hits, before.attack_hits) +
                      d(now.plan_hits, before.plan_hits);
  const double misses = d(now.workload_misses, before.workload_misses) +
                        d(now.attack_misses, before.attack_misses) +
                        d(now.plan_misses, before.plan_misses);
  samples().add("support.memo_hits", hits);
  samples().add("support.memo_lookups", hits + misses);
}

namespace {

// How a metric is folded from its samples.
enum class Stat { kMedian, kP50, kP95, kCount, kSum, kRatio };

struct Fold {
  Stat stat;
  const char* key;         ///< sample key (defaults to the metric name)
  const char* denominator; ///< kRatio only
};

struct Row {
  LayerMetric metric;
  Fold fold;
};

// No listed workload's bounded metric can judge these; serve-mixed runs
// through the same command, unlisted, to judge them by hand.
constexpr const char* kUntestable =
    "untestable on the listed workloads; op_ms_p50, ops_per_s @ serve-mixed "
    "(unlisted)";
// A fork or restore costs microseconds against attempts of milliseconds.
constexpr const char* kUntestableReplication =
    "untestable on the listed workloads (microseconds against millisecond "
    "attempts); op_ms_p50, ops_per_s @ serve-mixed (unlisted)";

const std::vector<Row>& rows() {
  static const std::vector<Row> table = {
      {{"core.corpus_s", "s", "lower",
        "setup_s @ campaign; op_ms_p50 @ defense-grid"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"core.session_ms", "ms", "lower",
        "op_ms_p50 @ defense-grid; op_ms_p50, setup_s @ serve-mixed "
        "(unlisted)"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"core.sessions", "count", "lower",
        "op_ms_p50 @ defense-grid; op_ms_p50, setup_s @ serve-mixed "
        "(unlisted)"},
       {Stat::kCount, "core.session_ms", nullptr}},
      {{"core.attempt_ms", "ms", "lower",
        "ops_per_s, op_ms_p50 @ campaign; op_ms_p50 @ defense-grid"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"core.attempts", "count", "higher",
        "ops_per_s @ campaign (the attempts counted in the traced run)"},
       {Stat::kCount, "core.attempt_ms", nullptr}},
      {{"core.overhead_probe_s", "s", "lower", "op_ms_p50 @ defense-grid"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"core.run_job_ms.scenario", "ms", "lower", kUntestable},
       {Stat::kMedian, nullptr, nullptr}},
      {{"core.run_job_ms.program", "ms", "lower", kUntestable},
       {Stat::kMedian, nullptr, nullptr}},
      {{"core.run_job_ms.campaign", "ms", "lower", kUntestable},
       {Stat::kMedian, nullptr, nullptr}},
      {{"sim.exec_ms", "ms", "lower",
        "ops_per_s, op_ms_p50 @ campaign; op_ms_p50 @ defense-grid"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"sim.instructions", "count", "lower",
        "none (simulated invariant of the replayed attempts)"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"sim.cycles", "count", "lower",
        "none (simulated invariant of the replayed attempts)"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"sim.minstr_per_s", "Minstr/s", "higher",
        "ops_per_s, op_ms_p50 @ campaign; op_ms_p50 @ defense-grid"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"sim.replicate_us", "us", "lower", kUntestableReplication},
       {Stat::kMedian, nullptr, nullptr}},
      {{"sim.restored_pages", "count", "lower", kUntestableReplication},
       {Stat::kMedian, nullptr, nullptr}},
      {{"sim.baseline_ms", "ms", "lower", "setup_s @ defense-grid"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"sim.block_hit_ratio", "ratio", "higher",
        "ops_per_s, op_ms_p50 @ campaign; op_ms_p50 @ defense-grid"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"hid.profile_ms", "ms", "lower", "ops_per_s, op_ms_p50 @ campaign"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"hid.windows", "count", "lower",
        "none (simulated invariant of the replayed attempts)"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"hid.window_overhead_frac", "fraction", "lower",
        "ops_per_s, op_ms_p50 @ campaign"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"hid.score_ms", "ms", "lower", "ops_per_s @ campaign"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"hid.dataset_ms", "ms", "lower", "ops_per_s @ campaign"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"ml.fit_s.MLP", "s", "lower",
        "setup_s, ops_per_s @ campaign; op_ms_p50 @ defense-grid"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"ml.fit_s.NN", "s", "lower", "setup_s, ops_per_s @ campaign"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"ml.fit_s.LR", "s", "lower", "setup_s, ops_per_s @ campaign"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"ml.fit_s.SVM", "s", "lower", "setup_s, ops_per_s @ campaign"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"ml.refit_ms.MLP", "ms", "lower", "ops_per_s @ campaign"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"ml.refit_ms.NN", "ms", "lower", "ops_per_s @ campaign"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"ml.refit_ms.LR", "ms", "lower", "ops_per_s @ campaign"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"ml.refit_ms.SVM", "ms", "lower", "ops_per_s @ campaign"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"ml.refits", "count", "lower", "ops_per_s @ campaign"},
       {Stat::kSum, nullptr, nullptr}},
      {{"workloads.build_ms", "ms", "lower", "op_ms_p50 @ defense-grid"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"workloads.builds", "count", "lower", "op_ms_p50 @ defense-grid"},
       {Stat::kSum, nullptr, nullptr}},
      {{"casm.assemble_ms", "ms", "lower", "op_ms_p50 @ defense-grid"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"rop.plan_ms", "ms", "lower",
        "op_ms_p50 @ defense-grid; setup_s @ campaign"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"rop.plans", "count", "lower",
        "op_ms_p50 @ defense-grid; setup_s @ campaign"},
       {Stat::kSum, nullptr, nullptr}},
      {{"attack.build_ms", "ms", "lower", "ops_per_s @ campaign"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"attack.builds", "count", "lower", "ops_per_s @ campaign"},
       {Stat::kSum, nullptr, nullptr}},
      {{"mitigate.fence_pass_ms", "ms", "lower", "op_ms_p50 @ defense-grid"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"harden.probe_build_ms", "ms", "lower", "op_ms_p50 @ defense-grid"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"mine.corpus_ms", "ms", "lower", "op_ms_p50 @ defense-grid"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"mitigate.events", "count", "higher", "none (part of the digest)"},
       {Stat::kSum, nullptr, nullptr}},
      {{"harden.events", "count", "higher", "none (part of the digest)"},
       {Stat::kSum, nullptr, nullptr}},
      {{"support.memo_hit_ratio", "ratio", "higher",
        "op_ms_p50 @ defense-grid; ops_per_s @ campaign"},
       {Stat::kRatio, "support.memo_hits", "support.memo_lookups"}},
      {{"support.pool_idle_frac", "fraction", "lower", "ops_per_s @ campaign"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"serve.rtt_us", "us", "lower", kUntestable},
       {Stat::kMedian, nullptr, nullptr}},
      {{"serve.codec_us", "us", "lower", kUntestable},
       {Stat::kMedian, nullptr, nullptr}},
      {{"serve.queue_wait_ms_p50", "ms", "lower", kUntestable},
       {Stat::kP50, "serve.queue_wait_ms", nullptr}},
      {{"serve.queue_wait_ms_p95", "ms", "lower",
        "none (the job_ms_p95 tail @ serve-mixed (unlisted), not bounded)"},
       {Stat::kP95, "serve.queue_wait_ms", nullptr}},
      {{"serve.rejected", "count", "lower",
        "none on listed workloads (failed jobs @ serve-mixed (unlisted))"},
       {Stat::kSum, nullptr, nullptr}},
      {{"serve.completed", "count", "higher",
        "none on listed workloads (failed jobs @ serve-mixed (unlisted))"},
       {Stat::kSum, nullptr, nullptr}},
      {{"serve.generator_late_ms_p95", "ms", "lower",
        "none (validity of op_ms_p50 @ serve-mixed (unlisted))"},
       {Stat::kP95, "serve.generator_late_ms", nullptr}},
      {{"trace.overhead_frac", "fraction", "lower", "none"},
       {Stat::kMedian, nullptr, nullptr}},
      {{"trace.unattributed_frac", "fraction", "lower", "none"},
       {Stat::kMedian, nullptr, nullptr}},
  };
  return table;
}

/// Samples are stored in milliseconds for times; convert to the unit.
double from_ms(double v, const std::string& unit) {
  if (unit == "s") return v * 1e-3;
  if (unit == "us") return v * 1e3;
  return v;
}

}  // namespace

const std::vector<LayerMetric>& layer_table() {
  static const std::vector<LayerMetric> out = [] {
    std::vector<LayerMetric> v;
    for (const Row& r : rows()) v.push_back(r.metric);
    return v;
  }();
  return out;
}

void fold_layers(Report& report, const std::vector<std::string>& census_keys) {
  for (const Row& r : rows()) {
    const std::string name = r.metric.name;
    const std::string unit = r.metric.unit;
    const std::string key = r.fold.key != nullptr ? r.fold.key : name;
    const std::vector<double> xs = samples().get(key);
    double value = 0.0;
    switch (r.fold.stat) {
      case Stat::kMedian: value = from_ms(median(xs), unit); break;
      case Stat::kP50: value = from_ms(percentile(xs, 50), unit); break;
      case Stat::kP95: value = from_ms(percentile(xs, 95), unit); break;
      case Stat::kCount: value = static_cast<double>(xs.size()); break;
      case Stat::kSum: value = samples().sum(key); break;
      case Stat::kRatio: {
        const double den = samples().sum(r.fold.denominator);
        value = den > 0 ? samples().sum(key) / den : 0.0;
        break;
      }
    }
    const bool from_census =
        std::find(census_keys.begin(), census_keys.end(), key) !=
        census_keys.end();
    std::string note = from_census ? "census" : "workload";
    if (xs.empty()) note = "no samples";
    note += "; moves " + std::string(r.metric.moves);
    report.set(name, value, unit, xs.size(), note);
  }
}

}  // namespace crbench
