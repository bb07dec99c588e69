#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <iterator>

#include "hid/features.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace crs::core {

namespace {

/// Attempts an online shared run serves, its own included. Runs past the
/// next mutation are dropped unused, and every held run keeps its windows
/// in memory. 3 is the smallest depth that kept the online gain on crbench
/// campaign: over ten seeds it finished more online attempts on time than
/// depth 2 at every seed and as many as depth 4, at depth 4's peak RSS
/// (EXPERIMENTS.md, "Shared runs").
constexpr int kOnlineRunAhead = 3;

// Serial, main-thread-only summary emission: campaign-level trace events go
// to the dedicated summary lane (never colliding with in-run lanes) with a
// synthetic timeline of accumulated sim cycles, and the registry gets the
// attempt tallies. Wall time deliberately never enters either sink.
void record_attempt_observability(const AttemptRecord& record,
                                  std::uint64_t& acc_cycles) {
  if (obs::tracing_enabled()) {
    obs::LaneScope lane(obs::kSummaryLaneBase);
    obs::ScopedSpan span("core.campaign.attempt", acc_cycles);
    acc_cycles += record.sim_cycles;
    span.close(acc_cycles);
    obs::trace_counter("core.campaign.detection_rate", acc_cycles,
                       record.detection_rate);
    if (record.benign_fpr >= 0.0) {
      obs::trace_counter("core.campaign.benign_fpr", acc_cycles,
                         record.benign_fpr);
    }
    if (record.mutated_after) {
      obs::trace_instant("core.campaign.mutation", acc_cycles,
                         static_cast<double>(record.attempt));
    }
  } else {
    acc_cycles += record.sim_cycles;
  }

  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("core.campaign.attempts").add(1);
  reg.counter("core.campaign.sim_cycles").add(record.sim_cycles);
  if (record.detected) reg.counter("core.campaign.detected").add(1);
  if (record.evaded) reg.counter("core.campaign.evaded").add(1);
  if (record.mutated_after) reg.counter("core.campaign.mutations").add(1);
  if (record.secret_recovered) {
    reg.counter("core.campaign.secrets_recovered").add(1);
  }
  static constexpr double kRateBounds[] = {0.1, 0.2, 0.3, 0.4, 0.5,
                                           0.6, 0.7, 0.8, 0.9, 1.0};
  reg.histogram("core.campaign.detection_rate",
                std::span<const double>(kRateBounds))
      .observe(record.detection_rate);
  reg.gauge("core.campaign.last_attempt")
      .set(static_cast<double>(record.attempt));
  reg.gauge("core.campaign.last_detection_rate").set(record.detection_rate);
}

}  // namespace

double CampaignResult::mean_detection() const {
  if (attempts.empty()) return 0.0;
  double s = 0.0;
  for (const auto& a : attempts) s += a.detection_rate;
  return s / static_cast<double>(attempts.size());
}

double CampaignResult::min_detection() const {
  double m = 1.0;
  for (const auto& a : attempts) m = std::min(m, a.detection_rate);
  return attempts.empty() ? 0.0 : m;
}

double CampaignResult::max_detection() const {
  double m = 0.0;
  for (const auto& a : attempts) m = std::max(m, a.detection_rate);
  return m;
}

double CampaignResult::evasion_fraction() const {
  if (attempts.empty()) return 0.0;
  std::size_t n = 0;
  for (const auto& a : attempts) n += a.evaded ? 1 : 0;
  return static_cast<double>(n) / static_cast<double>(attempts.size());
}

CampaignResult run_campaign(const CampaignConfig& config,
                            const ml::Dataset& benign_train,
                            const ml::Dataset& attack_train,
                            const ml::Dataset* benign_holdout) {
  CRS_ENSURE(config.attempts > 0, "campaign needs at least one attempt");

  ml::Dataset initial = benign_train;
  initial.append_all(attack_train);
  hid::HidDetector detector = hid::trained_detector(config.detector, initial);

  perturb::VariantMutator mutator(config.scenario.perturb_params,
                                  config.seed ^ 0x77);

  // All attempts of this campaign run through one session config: the
  // session pins the host-scale draw to the campaign seed; per-attempt
  // jitter (window phase, noise, kernel RNG) still varies with the attempt
  // seed. Because an attempt is a pure function of its session config and
  // seed, whichever session runs it, results are byte-identical for any
  // thread count (tests/test_snapshot.cpp holds the proof).
  ScenarioConfig session_cfg = config.scenario;
  session_cfg.seed = config.seed;
  const auto attempt_seed = [&](int attempt) {
    return config.seed * 7919 + static_cast<std::uint64_t>(attempt);
  };
  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  };

  // Scores one attempt's run against `detector`. The detector's
  // predict/evaluate paths are const and pure, so concurrent attempts may
  // share it read-only.
  const auto score = [&](int attempt, const perturb::PerturbParams& params,
                         const ScenarioRun& run, double wall_ms) {
    AttemptRecord record;
    record.attempt = attempt;
    record.params = params;
    record.sim_cycles = run.profile.cycles;
    record.wall_ms = wall_ms;
    record.secret_recovered = run.secret_recovered;
    record.host_ipc = run.host_ipc;
    record.attack_window_count = run.attack_windows.size();
    record.detection_rate = detector.detection_rate(run.attack_windows);
    record.detected = record.detection_rate >= config.detect_threshold;
    record.evaded = record.detection_rate <= config.evade_threshold;
    if (benign_holdout != nullptr && benign_holdout->size() > 0) {
      const auto cm = detector.evaluate(*benign_holdout);
      record.benign_fpr = cm.fp + cm.tn == 0
                              ? 0.0
                              : static_cast<double>(cm.fp) /
                                    static_cast<double>(cm.fp + cm.tn);
    }
    return record;
  };

  CampaignResult result;
  if (!config.online_hid && !config.dynamic_perturbation) {
    // Offline campaign: the detector never refits and the mutator never
    // advances, so every attempt runs the same params. A local session on
    // the calling thread (its construction does the workload/plan/attack
    // builds, and any trace events they emit, before workers race) serves
    // every attempt it can from one shared execution; the attempts it
    // cannot serve are independent and run on the pool. Each attempt
    // derives everything from its index and records land in index order:
    // the result is bit-identical to the serial path for any thread count.
    const perturb::PerturbParams params = mutator.current();
    const auto n = static_cast<std::size_t>(config.attempts);
    ScenarioSession session(session_cfg);
    if (session.shares_runs()) {
      const std::size_t listed =
          std::min(n, ScenarioSession::kMaxSharedAttempts);
      std::vector<std::uint64_t> seeds;
      for (std::size_t i = 0; i < listed; ++i) {
        seeds.push_back(attempt_seed(static_cast<int>(i) + 1));
      }
      const auto start = Clock::now();
      const std::vector<ScenarioRun> runs = session.run_attempts(seeds, params);
      const double wall_ms = ms_since(start);
      for (std::size_t i = 0; i < runs.size(); ++i) {
        hid::record_run_metrics(runs[i].profile);
        result.attempts.push_back(
            score(static_cast<int>(i) + 1, params, runs[i], wall_ms));
      }
    }
    // The attempts the shared execution could not serve (all of them when
    // the session cannot share) run on the pool, one thread_session each.
    if (const std::size_t served = result.attempts.size(); served < n) {
      ThreadPool pool;
      const std::vector<AttemptRecord> rest = parallel_map<AttemptRecord>(
          pool, n - served, [&](std::size_t k) {
            const int attempt = static_cast<int>(served + k) + 1;
            const auto start = Clock::now();
            const ScenarioRun run =
                thread_session(session_cfg)
                    .run_attempt(attempt_seed(attempt), params);
            return score(attempt, params, run, ms_since(start));
          });
      result.attempts.insert(result.attempts.end(), rest.begin(), rest.end());
    }
    // Summary emission happens after the index-ordered collection, on the
    // calling thread, so it is identical to the serial campaign's.
    std::uint64_t acc_cycles = 0;
    std::size_t kept = result.attempts.size();
    for (std::size_t i = 0; i < result.attempts.size(); ++i) {
      record_attempt_observability(result.attempts[i], acc_cycles);
      if (config.on_attempt && !config.on_attempt(result.attempts[i])) {
        kept = i + 1;  // cancelled: drop the not-yet-reported tail
        break;
      }
    }
    result.attempts.resize(kept);
    return result;
  }

  // Online / dynamic campaign: attempt k's detector (and possibly mutator)
  // state depends on attempt k-1's outcome — inherently serial. What
  // executes does not: attempt k under params P also runs the next
  // attempts under P, and the runs it serves are held until their attempt
  // comes up or a mutation changes P. The list is the campaign's own, so
  // held runs end with it.
  std::deque<ScenarioRun> held;
  std::uint64_t acc_cycles = 0;
  for (int attempt = 1; attempt <= config.attempts; ++attempt) {
    const perturb::PerturbParams params = mutator.current();
    const auto start = Clock::now();
    if (held.empty()) {
      std::vector<std::uint64_t> seeds;
      for (int k = attempt;
           k <= std::min(config.attempts, attempt + kOnlineRunAhead - 1);
           ++k) {
        seeds.push_back(attempt_seed(k));
      }
      std::vector<ScenarioRun> runs =
          thread_session(session_cfg).run_attempts(seeds, params);
      held.insert(held.end(), std::make_move_iterator(runs.begin()),
                  std::make_move_iterator(runs.end()));
    }
    const ScenarioRun run = std::move(held.front());
    held.pop_front();
    hid::record_run_metrics(run.profile);
    AttemptRecord record = score(attempt, params, run, ms_since(start));

    if (config.online_hid && !run.attack_windows.empty()) {
      // Paper §II-E: the online HID retrains on newly profiled traces of
      // both classes — the attempt's attack-active windows (labelled by
      // the testbed's ground truth) and the host's own benign windows.
      ml::Dataset fresh = hid::windows_to_dataset(run.attack_windows, 1);
      fresh.append_all(hid::windows_to_dataset(run.host_windows, 0));
      detector.augment_and_refit(fresh);
    }
    if (config.dynamic_perturbation && record.detected) {
      mutator.next();
      record.mutated_after = true;
      held.clear();  // the held runs used the old params
    }
    record_attempt_observability(record, acc_cycles);
    result.attempts.push_back(record);
    if (config.on_attempt && !config.on_attempt(result.attempts.back())) {
      break;  // cancelled mid-campaign
    }
  }
  return result;
}

}  // namespace crs::core
