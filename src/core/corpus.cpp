#include "core/corpus.hpp"

#include "core/scenario.hpp"
#include "hid/features.hpp"
#include "obs/metrics.hpp"
#include "sim/kernel.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace crs::core {

namespace {

/// Everything one benign profiling run needs, drawn serially from the
/// corpus RNG so the draw order matches the historical serial loop exactly.
struct BenignSpec {
  std::string app;
  workloads::WorkloadOptions wopt;
  hid::ProfilerConfig prof;
  std::uint64_t kernel_seed = 0;
  std::string arg;
};

/// Executes one benign run on its own clean default machine and
/// returns the feature rows of its windows. Share-nothing: safe to run
/// concurrently.
std::vector<std::vector<double>> run_benign_spec(const BenignSpec& spec) {
  sim::Machine machine;
  sim::KernelConfig kcfg;
  kcfg.seed = spec.kernel_seed;
  sim::Kernel kernel(machine, kcfg);
  kernel.register_binary("/bin/app",
                         workloads::build_workload(spec.app, spec.wopt));
  const auto profile =
      hid::profile_run_strings(kernel, "/bin/app", {spec.app, spec.arg},
                               spec.prof);
  // A stop at max_windows is a prefix stop: the run's first max_windows
  // windows are the uncapped run's, noise draws included.
  const bool capped = profile.stop == sim::StopReason::kCycleLimit &&
                      profile.windows.size() == spec.prof.max_windows;
  CRS_ENSURE(profile.stop == sim::StopReason::kHalted || capped,
             "benign run of '" + spec.app + "' did not halt");
  std::vector<std::vector<double>> rows;
  rows.reserve(profile.windows.size());
  for (const auto& w : profile.windows) {
    rows.push_back(hid::feature_vector(w.delta));
  }
  return rows;
}

/// Executes one standalone Spectre run and returns its attack-window rows.
std::vector<std::vector<double>> run_attack_spec(
    const ScenarioConfig& scenario) {
  const ScenarioRun run = run_scenario(scenario);
  CRS_ENSURE(run.secret_recovered,
             "standalone Spectre failed during corpus construction");
  std::vector<std::vector<double>> rows;
  rows.reserve(run.attack_windows.size());
  for (const auto& w : run.attack_windows) {
    rows.push_back(hid::feature_vector(w.delta));
  }
  return rows;
}

/// Appends each run's rows in draw order until the dataset reaches
/// `target`; returns true when it did.
bool append_until(ml::Dataset& out,
                  const std::vector<std::vector<std::vector<double>>>& runs,
                  int label, std::size_t target) {
  for (const auto& rows : runs) {
    for (const auto& row : rows) {
      out.append(row, label);
      if (out.size() >= target) return true;
    }
  }
  return out.size() >= target;
}

}  // namespace

ml::Dataset build_benign_corpus(const CorpusConfig& config) {
  std::vector<std::string> apps = config.benign_apps;
  if (apps.empty()) {
    for (const auto& w : workloads::host_catalog()) apps.push_back(w.name);
    for (const auto& w : workloads::benign_pool_catalog())
      apps.push_back(w.name);
  }
  CRS_ENSURE(!apps.empty(), "benign corpus needs at least one app");

  Rng rng(config.seed);
  ml::Dataset out;
  std::size_t app_index = 0;
  int guard = 0;
  ThreadPool pool;
  while (out.size() < config.windows_per_class) {
    // Draw a batch of run specs serially — exactly the draws, in exactly
    // the order, the serial loop made — then execute the share-nothing runs
    // on the pool and append their windows in draw order. The corpus is
    // bit-identical for every thread count.
    std::vector<BenignSpec> batch;
    for (unsigned b = 0; b < pool.size(); ++b) {
      CRS_ENSURE(++guard < 10'000, "benign corpus failed to accumulate");
      BenignSpec spec;
      spec.app = apps[app_index];
      app_index = (app_index + 1) % apps.size();
      spec.wopt.scale =
          config.host_scale +
          rng.next_below(std::max<std::uint64_t>(config.host_scale / 4, 1));
      spec.prof = config.profiler;
      spec.prof.window_cycles += rng.next_below(
          std::max<std::uint64_t>(spec.prof.window_cycles / 10, 1));
      spec.prof.noise_seed = rng.next_u64();
      spec.kernel_seed = rng.next_u64();
      spec.arg = "benign-" + std::to_string(rng.next_below(1000));
      // No run of this batch contributes more windows than the corpus
      // still lacks, so profiling past that is waste. The cap draws
      // nothing from the RNG.
      spec.prof.max_windows =
          std::min(config.profiler.max_windows,
                   config.windows_per_class - out.size());
      batch.push_back(std::move(spec));
    }
    const auto runs = parallel_map<std::vector<std::vector<double>>>(
        pool, batch.size(),
        [&](std::size_t i) { return run_benign_spec(batch[i]); });
    if (append_until(out, runs, 0, config.windows_per_class)) break;
  }
  // Only consumed quantities are published: batches over-produce by up to
  // pool.size()-1 runs, so per-run profiler counters emitted during corpus
  // construction are thread-count-dependent while these totals are not.
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("core.corpus.benign_builds").add(1);
  reg.counter("core.corpus.benign_windows").add(out.size());
  return out;
}

ml::Dataset build_attack_corpus(const CorpusConfig& config) {
  CRS_ENSURE(!config.variants.empty(), "attack corpus needs variants");
  Rng rng(config.seed ^ 0xA77ACCull);
  ml::Dataset out;
  std::size_t variant_index = 0;
  int guard = 0;
  ThreadPool pool;
  while (out.size() < config.windows_per_class) {
    std::vector<ScenarioConfig> batch;
    for (unsigned b = 0; b < pool.size(); ++b) {
      CRS_ENSURE(++guard < 10'000, "attack corpus failed to accumulate");
      ScenarioConfig scenario;
      scenario.secret = config.secret;
      scenario.variant = config.variants[variant_index];
      variant_index = (variant_index + 1) % config.variants.size();
      scenario.rop_injected = false;
      scenario.perturb = false;
      scenario.seed = rng.next_u64();
      scenario.profiler = config.profiler;
      batch.push_back(std::move(scenario));
    }
    const auto runs = parallel_map<std::vector<std::vector<double>>>(
        pool, batch.size(),
        [&](std::size_t i) { return run_attack_spec(batch[i]); });
    if (append_until(out, runs, 1, config.windows_per_class)) break;
  }
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("core.corpus.attack_builds").add(1);
  reg.counter("core.corpus.attack_windows").add(out.size());
  return out;
}

}  // namespace crs::core
