// The layer census: after a traced workload, every per-layer metric whose
// call the workload's own traffic never makes (the serve layer on campaign,
// the NN fit on defense-grid, which fits only the default classifier) gets
// its samples from one small call of its own, so each traced run reports
// every metric from a real measurement. The prediction for such a metric on
// that workload is no change. Samples the workload did produce are left
// untouched.
#include <set>
#include <thread>

#include "core/corpus.hpp"
#include "core/job.hpp"
#include "core/overhead.hpp"
#include "harden/config.hpp"
#include "hid/features.hpp"
#include "layers.hpp"
#include "mine/mine.hpp"
#include "mitigate/config.hpp"
#include "ml/mlp.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/snapshot.hpp"
#include "support/parallel.hpp"
#include "workloads.hpp"

namespace crbench {

using namespace crs;

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index) {
  return derive_seed(seed ^ 0xC0FFEE5EEDull, index);
}

void time_first_baselines(const std::vector<core::ScenarioConfig>& configs) {
  std::set<std::uint64_t> seen;
  for (const core::ScenarioConfig& c : configs) {
    sim::MachineConfig mcfg;
    sim::KernelConfig kcfg;
    c.mitigations.apply(mcfg, kcfg);
    if (!seen.insert(sim::hash_machine_config(mcfg)).second) continue;
    timed("sim.baseline_ms", [&] { return sim::shared_baseline(mcfg); });
  }
}

double ping_ms(serve::Client& client) {
  const auto t0 = Clock::now();
  client.ping();
  while (client.next_event().type != serve::FrameType::kPong) {
  }
  return elapsed_ms(t0);
}

double codec_ms(const core::JobSpec& spec) {
  const auto t0 = Clock::now();
  const std::string text = core::serialize_job(spec);
  const core::JobSpec back = core::parse_job(text);
  const std::string frame =
      serve::encode_frame(serve::FrameType::kSubmit, text);
  serve::FrameDecoder dec;
  dec.feed(frame.data(), frame.size());
  const auto got = dec.next();
  const double ms = elapsed_ms(t0);
  return got && back.kind == spec.kind && got->payload == text ? ms : -1.0;
}

namespace {

core::JobSpec small_job(core::JobKind kind, std::uint64_t seed) {
  core::JobSpec spec;
  spec.kind = kind;
  switch (kind) {
    case core::JobKind::kScenario:
      spec.scenario.config.rop_injected = false;
      spec.scenario.config.host_scale = 900;
      spec.scenario.config.seed = seed;
      break;
    case core::JobKind::kCampaign:
      spec.campaign.config.scenario.rop_injected = false;
      spec.campaign.config.scenario.host_scale = 700;
      spec.campaign.config.attempts = 2;
      spec.campaign.config.seed = seed;
      spec.campaign.corpus_windows = 24;
      spec.campaign.corpus_seed = seed + 1;
      break;
    default:
      spec.kind = core::JobKind::kProgram;
      spec.program.source =
          "main:\n  movi r1, 0\n  movi r2, 3000\nloop:\n  add r1, r1, r2\n"
          "  addi r2, r2, -1\n  bnez r2, loop\n  call exit_\n";
      break;
  }
  return spec;
}

}  // namespace

std::vector<std::string> run_census(const RunOptions& o, Report& report) {
  std::set<std::string> missing;
  std::vector<std::string> keys;
  for (const LayerMetric& m : layer_table()) keys.push_back(m.name);
  for (const char* k : {"serve.queue_wait_ms", "serve.generator_late_ms",
                        "support.memo_hits"}) {
    keys.push_back(k);
  }
  for (const std::string& k : keys) {
    if (!samples().has(k)) missing.insert(k);
  }
  const auto need = [&](std::initializer_list<const char*> ks) {
    for (const char* k : ks) {
      if (missing.count(k) != 0) return true;
    }
    return false;
  };
  const auto saved = samples().snapshot();
  const std::uint64_t seed = sub_seed(o.seed, 3000);

  bool need_ml = need({"core.corpus_s", "ml.refits", "hid.score_ms",
                        "hid.dataset_ms", "support.pool_idle_frac"});
  for (const std::string& kind : ml::classifier_zoo()) {
    need_ml = need_ml || missing.count("ml.fit_s." + kind) != 0 ||
              missing.count("ml.refit_ms." + kind) != 0;
  }
  if (need_ml) {
    core::CorpusConfig cc;
    cc.windows_per_class = 60;
    cc.host_scale = 400;
    cc.seed = seed;
    ml::Dataset all;
    timed("core.corpus_s", [&] {
      all = core::build_benign_corpus(cc);
      all.append_all(core::build_attack_corpus(cc));
      return 0;
    });
    core::ScenarioConfig sc;
    sc.rop_injected = false;
    sc.host_scale = 900;
    sc.seed = seed;
    const core::ScenarioRun run = core::run_scenario(sc);
    const auto zoo = ml::classifier_zoo();
    ThreadPool pool(std::min<unsigned>(static_cast<unsigned>(zoo.size()),
                                       resolve_thread_count()));
    std::vector<double> busy(zoo.size(), 0.0);
    const auto p0 = Clock::now();
    pool.for_each_index(zoo.size(), [&](std::size_t k) {
      const auto b0 = Clock::now();
      hid::DetectorConfig dc;
      dc.classifier = zoo[k];
      dc.features = hid::paper_feature_indices();
      hid::HidDetector detector(dc);
      timed("ml.fit_s." + zoo[k], [&] {
        detector.fit(all);
        return 0;
      });
      timed("hid.score_ms",
            [&] { return detector.detection_rate(run.attack_windows); });
      const ml::Dataset fresh = timed("hid.dataset_ms", [&] {
        return hid::windows_to_dataset(run.attack_windows, 1);
      });
      timed("ml.refit_ms." + zoo[k], [&] {
        detector.augment_and_refit(fresh);
        return 0;
      });
      samples().add("ml.refits", 1);
      busy[k] = elapsed_ms(b0);
    });
    double busy_ms = 0.0;
    for (const double b : busy) busy_ms += b;
    samples().add("support.pool_idle_frac",
                  1.0 - busy_ms / (pool.size() * elapsed_ms(p0)));
  }

  if (need({"core.overhead_probe_s"})) {
    core::OverheadConfig oc;
    oc.repeats = 1;
    oc.seed = seed;
    timed("core.overhead_probe_s", [&] {
      return core::mitigation_overhead_pct(
          "basicmath", 2000, mitigate::preset("lfence-bounds"), oc);
    });
    timed("core.overhead_probe_s", [&] {
      return core::harden_overhead_pct("basicmath", 2000,
                                       harden::preset("canary"), oc);
    });
  }

  if (need({"core.run_job_ms.scenario", "core.run_job_ms.program",
            "core.run_job_ms.campaign", "serve.rtt_us", "serve.codec_us",
            "serve.queue_wait_ms", "serve.generator_late_ms"})) {
    // Service time in-process (cold, then warm) per job kind.
    std::map<core::JobKind, double> warm_ms;
    for (const core::JobKind kind : {core::JobKind::kScenario,
                                     core::JobKind::kProgram,
                                     core::JobKind::kCampaign}) {
      const core::JobSpec spec = small_job(kind, seed);
      for (int rep = 0; rep < 2; ++rep) {
        const auto t0 = Clock::now();
        timed("core.run_job_ms." + core::job_kind_name(kind),
              [&] { return core::run_job(spec); });
        warm_ms[kind] = elapsed_ms(t0);
      }
      for (int rep = 0; rep < 10; ++rep) {
        const double ms = codec_ms(spec);
        report.check(ms >= 0, "census codec round trip");
        if (ms >= 0) samples().add("serve.codec_us", ms);
      }
    }
    // A tiny open loop of program jobs, 2 ms apart, against a fresh server.
    serve::ServeConfig scfg;
    scfg.shards = 2;
    serve::Server server(scfg);
    server.start();
    serve::Client client = serve::Client::connect_tcp(server.port());
    std::vector<double> rtt;
    for (int i = 0; i < 20; ++i) rtt.push_back(ping_ms(client));
    for (const double r : rtt) samples().add("serve.rtt_us", r);
    const core::JobSpec prog = small_job(core::JobKind::kProgram, seed);
    constexpr int kJobs = 8;
    std::vector<double> due(kJobs);
    const double origin = now_s() + 0.005;
    for (int i = 0; i < kJobs; ++i) {
      due[i] = origin + 0.002 * i;
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(0.0, due[i] - now_s())));
      samples().add("serve.generator_late_ms", (now_s() - due[i]) * 1e3);
      core::JobSpec spec = prog;
      spec.id = static_cast<std::uint64_t>(i);
      client.submit(spec);
    }
    for (int done = 0; done < kJobs;) {
      const serve::Client::Event ev = client.next_event();
      if (ev.type != serve::FrameType::kResult) continue;
      ++done;
      report.check(ev.status == "ok", "census program job served ok");
      const double latency_ms = (now_s() - due[ev.id]) * 1e3;
      samples().add("serve.queue_wait_ms",
                    latency_ms - warm_ms[core::JobKind::kProgram] -
                        median(rtt));
    }
    server.shutdown(true);
    const serve::ServeStats st = server.stats();
    samples().add("serve.completed", static_cast<double>(st.completed));
    samples().add("serve.rejected", static_cast<double>(st.rejected));
  }

  if (need({"mine.corpus_ms"})) {
    mine::CorpusOptions opt;
    opt.generated = 1;
    opt.seed = seed;
    timed("mine.corpus_ms", [&] { return mine::mine_corpus(opt); });
  }

  if (need({"rop.plan_ms", "workloads.build_ms", "mitigate.fence_pass_ms",
            "sim.exec_ms", "core.session_ms", "support.memo_hits"})) {
    core::ScenarioConfig sc;
    sc.host_scale = 2000;
    sc.seed = seed;
    sc.mitigations = mitigate::preset("lfence-bounds");
    MemoDelta memo;
    replay_attempt(reference_attempt("census-injected", sc, seed + 1), report);
    memo.commit();
  }

  if (need({"harden.probe_build_ms"})) {
    core::ScenarioConfig sc;
    sc.host_scale = 2000;
    sc.seed = seed;
    sc.leak_stage = true;
    sc.harden = harden::preset("full");
    time_probe_build(sc);
  }

  // Keep the workload's own samples; the census only fills gaps.
  std::map<std::string, std::vector<double>> keep;
  for (const auto& [key, values] : saved) {
    if (!values.empty()) keep[key] = values;
  }
  samples().restore(keep);

  std::vector<std::string> filled;
  for (const std::string& k : missing) {
    if (samples().has(k)) filled.push_back(k);
  }
  return filled;
}

}  // namespace crbench
