// campaign: the paper's evaluation. Set-up builds one training corpus and
// fits the whole classifier zoo; the measured schedule then runs, cycling
// through the classifiers at fresh seeds, the Fig. 5(b)-shaped offline
// CR-Spectre campaign (parallel attempts, no retraining) and the
// Fig. 6(b)-shaped online campaign (serial attempts, dynamic perturbation,
// incremental retraining).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>

#include "core/campaign.hpp"
#include "core/corpus.hpp"
#include "hid/features.hpp"
#include "layers.hpp"
#include "ml/mlp.hpp"
#include "support/parallel.hpp"
#include "workloads.hpp"

namespace crbench {

using namespace crs;

namespace {

constexpr int kAttempts = 10;

struct Corpus {
  ml::Dataset benign;
  ml::Dataset attack;
};

/// The training corpus is the paper's fixed dataset (§III-A: 2000 windows
/// per class, default corpus seed): the workload seed varies the campaigns,
/// not the defender's training data, so runs at different seeds face the
/// same detectors.
Corpus set_up(const RunOptions& o) {
  core::CorpusConfig cc;
  cc.windows_per_class = o.tiny ? 200 : 2000;
  cc.host_scale = 400;
  Corpus c;
  timed("core.corpus_s", [&] {
    c.benign = core::build_benign_corpus(cc);
    c.attack = core::build_attack_corpus(cc);
    return 0;
  });
  ml::Dataset all = c.benign;
  all.append_all(c.attack);
  for (const std::string& kind : ml::classifier_zoo()) {
    hid::DetectorConfig dc;
    dc.classifier = kind;
    dc.features = hid::paper_feature_indices();
    hid::HidDetector detector(dc);
    timed("ml.fit_s." + kind, [&] {
      detector.fit(all);
      return 0;
    });
  }
  return c;
}

core::CampaignConfig campaign_config(const std::string& kind, bool online,
                                     std::uint64_t seed, bool tiny) {
  core::CampaignConfig cfg;
  cfg.scenario.rop_injected = true;
  cfg.scenario.perturb = true;
  cfg.scenario.perturb_params.loop_count = 16;
  if (online) {
    // Fig. 6(b): dynamic perturbation against an incrementally retrained HID.
    cfg.scenario.perturb_params.delay = 2000;
    cfg.detector.online_mode = hid::OnlineMode::kIncremental;
    cfg.online_hid = true;
    cfg.dynamic_perturbation = true;
  } else {
    // Fig. 5(b): the offline attacker's single static variant.
    cfg.scenario.perturb_params.delay = 500;
    cfg.scenario.perturb_params.style = perturb::MimicStyle::kBranchy;
  }
  cfg.detector.classifier = kind;
  cfg.detector.features = hid::paper_feature_indices();
  cfg.attempts = tiny ? 2 : kAttempts;
  cfg.seed = seed;
  return cfg;
}

/// Campaign i of the offline (online) series gets seed sub_seed(seed, 100 +
/// i) (sub_seed(seed, 500 + i)) and classifier i % 4.
core::CampaignConfig series_config(std::uint64_t seed, bool online,
                                   std::size_t i, bool tiny) {
  const auto zoo = ml::classifier_zoo();
  return campaign_config(zoo[i % zoo.size()], online,
                         sub_seed(seed, (online ? 500 : 100) + i), tiny);
}

/// Session per worker thread, built through the public constructor (the
/// decomposed twin of core::thread_session).
class Sessions {
 public:
  core::ScenarioSession& get(const core::ScenarioConfig& cfg) {
    const auto id = std::this_thread::get_id();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = map_.find(id);
      if (it != map_.end()) return *it->second;
    }
    auto s = timed("core.session_ms", [&] {
      return std::make_unique<core::ScenarioSession>(cfg);
    });
    std::lock_guard<std::mutex> lock(mutex_);
    return *(map_[id] = std::move(s));
  }

 private:
  std::mutex mutex_;
  std::map<std::thread::id, std::unique_ptr<core::ScenarioSession>> map_;
};

/// run_campaign driven from public calls (run_attempt, detection_rate,
/// windows_to_dataset, augment_and_refit, VariantMutator), with a span
/// around each. Must reproduce core::run_campaign's records exactly.
core::CampaignResult decomposed_campaign(const core::CampaignConfig& config,
                                         const Corpus& corpus,
                                         std::uint64_t op_base,
                                         std::vector<AttemptRef>* refs) {
  const std::string kind = config.detector.classifier;
  hid::HidDetector detector(config.detector);
  ml::Dataset initial = corpus.benign;
  initial.append_all(corpus.attack);
  timed("ml.fit_s." + kind, [&] {
    detector.fit(initial);
    return 0;
  });
  perturb::VariantMutator mutator(config.scenario.perturb_params,
                                  config.seed ^ 0x77);
  core::ScenarioConfig session_cfg = config.scenario;
  session_cfg.seed = config.seed;
  Sessions sessions;
  std::mutex refs_mutex;

  const auto attempt = [&](int index, const perturb::PerturbParams& params,
                           core::ScenarioRun* run_out) {
    const std::uint64_t attempt_seed =
        config.seed * 7919 + static_cast<std::uint64_t>(index);
    core::ScenarioSession& session = sessions.get(session_cfg);
    const bool warm = session.attempts() > 0;
    const auto t0 = Clock::now();
    core::ScenarioRun run = timed(
        "core.attempt_ms",
        [&] { return session.run_attempt(attempt_seed, params); },
        op_base + static_cast<std::uint64_t>(index));
    core::AttemptRecord r;
    r.attempt = index;
    r.params = params;
    r.sim_cycles = run.profile.cycles;
    r.wall_ms = elapsed_ms(t0);
    r.secret_recovered = run.secret_recovered;
    r.host_ipc = run.host_ipc;
    r.attack_window_count = run.attack_windows.size();
    r.detection_rate = timed("hid.score_ms", [&] {
      return detector.detection_rate(run.attack_windows);
    });
    r.detected = r.detection_rate >= config.detect_threshold;
    r.evaded = r.detection_rate <= config.evade_threshold;
    if (refs != nullptr && index <= 2) {
      std::lock_guard<std::mutex> lock(refs_mutex);
      refs->push_back(make_ref(
          fmt("%s-%s-a%d", config.online_hid ? "online" : "offline",
              kind.c_str(), index),
          session_cfg, attempt_seed, params, run, warm));
    }
    if (run_out != nullptr) *run_out = std::move(run);
    return r;
  };

  core::CampaignResult result;
  if (!config.online_hid && !config.dynamic_perturbation) {
    timed("core.warm_scenario_memo",
          [&] {
            core::warm_scenario_memo(session_cfg);
            return 0;
          },
          op_base);
    ThreadPool pool;
    result.attempts = parallel_map<core::AttemptRecord>(
        pool, static_cast<std::size_t>(config.attempts), [&](std::size_t i) {
          return attempt(static_cast<int>(i) + 1, mutator.current(), nullptr);
        });
    for (std::size_t i = 0; i < result.attempts.size(); ++i) {
      if (config.on_attempt && !config.on_attempt(result.attempts[i])) {
        result.attempts.resize(i + 1);
        break;
      }
    }
    return result;
  }
  for (int index = 1; index <= config.attempts; ++index) {
    core::ScenarioRun run;
    core::AttemptRecord r = attempt(index, mutator.current(), &run);
    if (config.online_hid && !run.attack_windows.empty()) {
      ml::Dataset fresh = timed("hid.dataset_ms", [&] {
        return hid::windows_to_dataset(run.attack_windows, 1);
      });
      fresh.append_all(timed("hid.dataset_ms", [&] {
        return hid::windows_to_dataset(run.host_windows, 0);
      }));
      timed("ml.refit_ms." + kind, [&] {
        detector.augment_and_refit(fresh);
        return 0;
      });
      samples().add("ml.refits", 1);
    }
    if (config.dynamic_perturbation && r.detected) {
      timed("perturb.mutate", [&] { return mutator.next(); });
      r.mutated_after = true;
    }
    result.attempts.push_back(r);
    if (config.on_attempt && !config.on_attempt(result.attempts.back())) {
      break;
    }
  }
  return result;
}

/// One campaign the schedule ran.
struct Ran {
  std::size_t index = 0;  ///< position in its half's series
  core::CampaignConfig config;
  core::CampaignResult result;
  std::vector<AttemptRef> refs;  ///< decomposed runs of campaign 0 only
};

/// What one pass of the measured schedule did.
struct Schedule {
  std::vector<Ran> offline;  ///< in series order
  std::vector<Ran> online;   ///< in series order
  double offline_s = 0.0;    ///< wall of the offline half
  double online_s = 0.0;     ///< online half until its last worker finished
  std::size_t on_time = 0;   ///< online attempts finished by the deadline
  double idle_frac = 0.0;    ///< online workers' idle share
};

/// Runs one campaign: core::run_campaign, or its decomposed twin.
using Runner = std::function<void(Ran&)>;

/// The measured schedule. The first half of the time runs Fig. 5(b)
/// campaigns one after another (each fans its attempts out on a pool). The
/// second half runs Fig. 6(b) campaigns on the benchmark's workers, each
/// worker claiming the next campaign as soon as it is free, so no worker
/// waits for a straggler; a campaign still running at the deadline stops
/// after its current attempt. The first campaign per classifier of each
/// half always runs in full and feeds the digest. With `replay`, the
/// schedule runs exactly the campaigns, and attempt counts, that `replay`
/// ran, with no deadline.
Schedule run_schedule(const RunOptions& o, const Runner& run,
                      const Schedule* replay) {
  const std::size_t zoo = ml::classifier_zoo().size();
  const double half_s = o.seconds / 2;
  Schedule s;

  const auto t_off = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool done =
        replay != nullptr
            ? i >= replay->offline.size()
            : i >= zoo && (o.tiny || elapsed_ms(t_off) >= half_s * 1e3);
    if (done) break;
    Ran r;
    r.index = i;
    r.config = replay != nullptr ? replay->offline[i].config
                                 : series_config(o.seed, false, i, o.tiny);
    run(r);
    s.offline.push_back(std::move(r));
  }
  s.offline_s = elapsed_ms(t_off) / 1e3;

  const double on_start = now_s();
  const double deadline = on_start + (o.tiny ? 0.0 : half_s);
  const std::size_t total =
      replay != nullptr ? replay->online.size() : SIZE_MAX;
  std::mutex mutex;
  std::atomic<std::size_t> next{0};
  const unsigned workers = std::min<unsigned>(static_cast<unsigned>(zoo),
                                              resolve_thread_count());
  std::vector<double> busy_s(workers, 0.0);
  ThreadPool pool(workers);
  pool.for_each_index(workers, [&](std::size_t w) {
    for (;;) {
      const std::size_t i = next++;
      if (i >= total) return;
      const bool in_digest = i < zoo;
      if (replay == nullptr && !in_digest && now_s() >= deadline) return;
      const double b0 = now_s();
      Ran r;
      r.index = i;
      if (replay != nullptr) {
        r.config = replay->online[i].config;
        r.config.attempts =
            static_cast<int>(replay->online[i].result.attempts.size());
      } else {
        r.config = series_config(o.seed, true, i, o.tiny);
        r.config.on_attempt = [&, in_digest](const core::AttemptRecord&) {
          const bool before = now_s() <= deadline;
          if (before) {
            std::lock_guard<std::mutex> lock(mutex);
            ++s.on_time;
          }
          return before || in_digest;
        };
      }
      run(r);
      r.config.on_attempt = nullptr;
      busy_s[w] += now_s() - b0;
      std::lock_guard<std::mutex> lock(mutex);
      s.online.push_back(std::move(r));
    }
  });
  s.online_s = now_s() - on_start;
  double busy = 0.0;
  for (const double b : busy_s) busy += b;
  s.idle_frac = 1.0 - busy / (static_cast<double>(workers) * s.online_s);
  std::sort(s.online.begin(), s.online.end(),
            [](const Ran& a, const Ran& b) { return a.index < b.index; });
  return s;
}

bool same_record(const core::AttemptRecord& a, const core::AttemptRecord& b) {
  return a.attempt == b.attempt && a.detection_rate == b.detection_rate &&
         a.benign_fpr == b.benign_fpr && a.detected == b.detected &&
         a.evaded == b.evaded && a.mutated_after == b.mutated_after &&
         a.params == b.params && a.secret_recovered == b.secret_recovered &&
         a.host_ipc == b.host_ipc &&
         a.attack_window_count == b.attack_window_count &&
         a.sim_cycles == b.sim_cycles;
}

/// Oracle: every undefended CR-Spectre attempt recovers the planted secret.
/// A planted fault inverts the expectation for the next attempt checked.
void check_campaign(const core::CampaignConfig& cfg,
                    const core::CampaignResult& res, bool& plant_fault,
                    Report& report) {
  for (const auto& a : res.attempts) {
    const bool expect = !plant_fault;
    plant_fault = false;
    report.check(a.secret_recovered == expect,
                 fmt("%s campaign %s attempt %d: secret %s",
                     cfg.online_hid ? "online" : "offline",
                     cfg.detector.classifier.c_str(), a.attempt,
                     a.secret_recovered ? "recovered" : "NOT recovered"));
  }
}

/// Deterministic outputs of the digest campaigns: per-attempt cycles and
/// detection rates.
void digest_campaigns(const std::vector<const Ran*>& ran, Report& report) {
  Digest d;
  double fig6b_min = 1.0, fig5b_max_mean = 0.0;
  for (const Ran* r : ran) {
    const auto& cfg = r->config;
    const auto& res = r->result;
    std::string line = fmt("%-7s %-4s", cfg.online_hid ? "online" : "offline",
                           cfg.detector.classifier.c_str());
    for (const auto& a : res.attempts) {
      d.u64(a.sim_cycles).f64(a.detection_rate);
      line += fmt(" %llu:%.1f%%", static_cast<unsigned long long>(a.sim_cycles),
                  100.0 * a.detection_rate);
    }
    report.digest(line);
    if (cfg.online_hid) {
      fig6b_min = std::min(fig6b_min, res.min_detection());
    } else {
      fig5b_max_mean = std::max(fig5b_max_mean, res.mean_detection());
    }
  }
  report.digest("campaign digest (cycles, detection rates): " + d.hex());
  report.digest(fmt("Fig. 5(b) shape: highest per-classifier mean detection "
                    "%.1f%% (paper: at or under 55%%, bottoming near 16%%)",
                    100.0 * fig5b_max_mean));
  report.digest(fmt("Fig. 6(b) shape: lowest online detection %.1f%% (paper: "
                    "minimum about 16%%)",
                    100.0 * fig6b_min));
  report.digest("Table I reference (not re-measured here): IPC overhead 0.6% "
                "offline, 1.1% online");
  report.digest("The simulator's timing model has not been validated against "
                "hardware; simulated cycles are model outputs.");
}

/// Oracles, digest and (untraced) end-to-end metrics of a schedule.
void report_schedule(const RunOptions& o, const Schedule& s, Report& report) {
  const std::size_t zoo = ml::classifier_zoo().size();
  bool plant = o.plant_fault;
  std::vector<const Ran*> digest;
  std::vector<double> latency_ms;
  std::size_t off_attempts = 0, on_attempts = 0;
  for (const bool online : {false, true}) {
    for (const Ran& r : online ? s.online : s.offline) {
      check_campaign(r.config, r.result, plant, report);
      (online ? on_attempts : off_attempts) += r.result.attempts.size();
      for (const auto& a : r.result.attempts) latency_ms.push_back(a.wall_ms);
      if (r.index < zoo) digest.push_back(&r);
    }
  }
  const double on_s = o.tiny ? s.online_s : o.seconds / 2;
  const std::size_t on_counted = o.tiny ? on_attempts : s.on_time;
  report.info(fmt("offline half: %zu attempts over %zu campaigns in %.3f s",
                  off_attempts, s.offline.size(), s.offline_s));
  report.info(fmt("online half: %zu of %zu attempts finished within %.3f s "
                  "over %zu campaigns; workers idle %.1f%% of %.3f s",
                  on_counted, on_attempts, on_s, s.online.size(),
                  100.0 * s.idle_frac, s.online_s));
  digest_campaigns(digest, report);
  if (o.trace) return;

  const Tail t = tail(latency_ms);
  const std::size_t counted = off_attempts + on_counted;
  report.set("ops_per_s", static_cast<double>(counted) / (s.offline_s + on_s),
             "1/s", counted, "attempts_per_s: campaign attempts per second");
  report.set("op_ms_p50", median(latency_ms), "ms", latency_ms.size(),
             "attempt wall time (AttemptRecord::wall_ms), median");
  report.info(fmt("tail (reported, not bounded): attempt wall p%.0f = %.3f ms "
                  "over %zu attempts",
                  t.pct, t.value, latency_ms.size()));
}

}  // namespace

void run_campaign_workload(const RunOptions& o, Report& report) {
  if (o.trace) time_first_baselines({core::ScenarioConfig{}});

  // Set-up: corpus + zoo fits, repeated so the median is stable; the last
  // repetition's corpus feeds the campaigns.
  const int reps = (o.trace || o.tiny) ? 1 : 3;
  std::vector<double> setup_s;
  Corpus corpus;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    corpus = set_up(o);
    setup_s.push_back(elapsed_ms(t0) / 1e3);
  }
  report.set("setup_s", median(setup_s), "s", setup_s.size(),
             "corpus build + classifier-zoo fits, median of repetitions");

  const Runner library = [&](Ran& r) {
    r.result = core::run_campaign(r.config, corpus.benign, corpus.attack);
  };
  if (!o.trace) {
    report_schedule(o, run_schedule(o, library, nullptr), report);
    return;
  }

  // Traced: the same schedule with every campaign decomposed into public
  // calls under spans; then, untraced, core::run_campaign over exactly the
  // campaigns and attempt counts the traced schedule ran. The records must
  // match, and the two walls give trace.overhead_frac. Each pass gets half
  // the time, so the run takes about as long as an untraced one.
  RunOptions half = o;
  half.seconds = o.seconds / 2;
  const Runner decomposed = [&](Ran& r) {
    const std::uint64_t op_base =
        ((r.config.online_hid ? 10000u : 0u) + r.index) * 1000;
    r.result = decomposed_campaign(r.config, corpus, op_base,
                                   r.index == 0 ? &r.refs : nullptr);
  };
  MemoDelta memo;
  const double s0 = now_s();
  const Schedule traced = run_schedule(half, decomposed, nullptr);
  const double s1 = now_s();
  memo.commit();
  samples().add("support.pool_idle_frac", traced.idle_frac);
  std::vector<Span> spans;
  for (Span& s : Tracer::instance().spans()) {
    if (s.start_s >= s0) spans.push_back(std::move(s));
  }
  samples().add("trace.unattributed_frac", unattributed_frac(spans, s0, s1));
  std::string shares = "traced schedule, share of its wall with a span open:";
  for (const auto& [layer, frac] : wall_share_by_layer(spans, s0, s1)) {
    shares += fmt(" %s %.1f%%", layer.c_str(), 100.0 * frac);
  }
  report.info(shares);

  Tracer::instance().set_enabled(false);
  const Schedule lib = run_schedule(half, library, &traced);
  Tracer::instance().set_enabled(true);
  for (const bool online : {false, true}) {
    const auto& a = online ? traced.online : traced.offline;
    const auto& b = online ? lib.online : lib.offline;
    for (std::size_t i = 0; i < a.size(); ++i) {
      bool same = i < b.size() &&
                  a[i].result.attempts.size() == b[i].result.attempts.size();
      for (std::size_t j = 0; same && j < a[i].result.attempts.size(); ++j) {
        same = same_record(a[i].result.attempts[j], b[i].result.attempts[j]);
      }
      report.check(same, fmt("%s campaign %zu: decomposed loop reproduces "
                             "run_campaign's attempt records",
                             online ? "online" : "offline", i));
    }
  }
  // The untraced re-run comes second, so drift of the machine within the
  // run (a CPU leaving turbo, say) shows in this figure too.
  samples().add("trace.overhead_frac",
                (traced.offline_s + traced.online_s) /
                        (lib.offline_s + lib.online_s) -
                    1.0);
  report.info(fmt("walls, offline + online half: traced schedule %.3f + "
                  "%.3f s, untraced run_campaign re-run %.3f + %.3f s",
                  traced.offline_s, traced.online_s, lib.offline_s,
                  lib.online_s));
  report_schedule(half, traced, report);
  // Replay sample: the first attempts of the first offline and the first
  // online campaign.
  for (const auto* half : {&traced.offline, &traced.online}) {
    if (half->empty()) continue;
    for (const AttemptRef& ref : half->front().refs) replay_attempt(ref, report);
  }
}

}  // namespace crbench
