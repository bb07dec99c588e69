// defense-grid: repeated passes of the crs_matrix grids, each at a fresh
// seed derived from the workload seed. A pass mines generated corpora (as
// `crs_matrix --mined` does) for four mined rows, runs the mitigation
// matrix with the default rows plus the mined rows, then the harden sweep.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>

#include "core/corpus.hpp"
#include "core/defense_matrix.hpp"
#include "core/harden_matrix.hpp"
#include "core/overhead.hpp"
#include "harden/config.hpp"
#include "hid/detector.hpp"
#include "layers.hpp"
#include "mine/mine.hpp"
#include "mitigate/config.hpp"
#include "support/parallel.hpp"
#include "workloads.hpp"

extern char** environ;

namespace crbench {

using namespace crs;

namespace {

constexpr std::size_t kMinedRows = 4;

struct Pass {
  core::DefenseMatrixConfig mconfig;
  core::HardenMatrixConfig hconfig;
  core::DefenseMatrixResult matrix;
  core::HardenMatrixResult harden;
  std::size_t mined_rows = 0;
  double wall_s = 0.0;
};

Pass run_pass(std::uint64_t pass_seed, bool tiny) {
  Pass p;
  p.mconfig.seed = sub_seed(pass_seed, 1);
  p.mconfig.quick = tiny;
  p.hconfig.seed = sub_seed(pass_seed, 2);
  p.hconfig.quick = tiny;
  const auto t0 = Clock::now();

  // Mined rows: generated corpora are mined, seed after seed, until
  // kMinedRows scenario-eligible gadgets are found, so every pass sweeps
  // the same number of rows.
  std::vector<core::AttackSpec> extra;
  for (std::uint64_t round = 0; extra.size() < kMinedRows && round < 8;
       ++round) {
    mine::CorpusOptions opt;
    opt.generated = tiny ? 2 : 8;
    opt.seed = sub_seed(pass_seed, 3 + round);
    const mine::CorpusReport mined =
        timed("mine.corpus_ms", [&] { return mine::mine_corpus(opt); });
    for (const auto& b : mined.binaries) {
      for (const auto& g : b.gadgets) {
        if (!g.scenario_eligible || extra.size() >= kMinedRows) continue;
        core::AttackSpec a;
        a.name = "mined-" + mine::gadget_class_name(g.cls) + "-" +
                 std::to_string(extra.size());
        a.scenario = mine::mined_scenario(g, p.mconfig.secret, false);
        extra.push_back(a);
      }
    }
  }
  p.mined_rows = extra.size();
  p.matrix = timed("core.run_defense_matrix",
                   [&] { return core::run_defense_matrix(p.mconfig, extra); });
  p.harden = timed("core.run_harden_matrix",
                   [&] { return core::run_harden_matrix(p.hconfig); });
  p.wall_s = elapsed_ms(t0) / 1e3;
  return p;
}

std::string pass_digest(const Pass& p) {
  return Digest()
      .str(core::matrix_csv(p.matrix))
      .str(core::harden_matrix_csv(p.harden))
      .hex();
}

/// Oracle: the crs_matrix --check stories over the built-in rows.
void check_pass(const Pass& p, bool plant_fault, Report& report) {
  bool planted = plant_fault;
  const auto expect = [&](bool ok, const std::string& what) {
    report.check(planted ? !ok : ok, what);
    planted = false;
  };
  for (const core::AttackSpec& a : core::default_attacks(p.mconfig)) {
    const core::MatrixCell& none = p.matrix.cell(a.name, "none");
    expect(none.leaks > 0, a.name + " leaks under 'none'");
    const core::MatrixCell& full = p.matrix.cell(a.name, "full");
    expect(full.leaks == 0, a.name + " blocked under 'full'");
  }
  for (const std::string& preset : p.matrix.presets) {
    std::uint64_t events = 0;
    for (const core::AttackSpec& a : core::default_attacks(p.mconfig)) {
      events += p.matrix.cell(a.name, preset).mitigation_events;
    }
    expect(preset == "none" ? events == 0 : events > 0,
           "preset '" + preset + "' engagement matches its story");
  }
  for (const std::string& attack : p.harden.attacks) {
    expect(p.harden.cell(attack, "none").leaks > 0,
           attack + " leaks unhardened");
  }
  for (const char* preset : {"canary", "aslr", "full"}) {
    expect(p.harden.cell("stack-overflow", preset).leaks == 0,
           std::string("stack-overflow stopped by '") + preset + "'");
  }
  for (const char* attack : {"spec-probe-rop", "spectre-1.1"}) {
    expect(p.harden.cell(attack, "full").leaks > 0,
           std::string(attack) + " still leaks under 'full'");
  }
  expect(p.harden.preset_summary("none").total_events() == 0,
         "'none' reports no hardening activity");
}

void digest_pass(const Pass& p, Report& report) {
  report.digest(fmt("pass-0 grid CSV digest (mitigation + harden): %s "
                    "(%zu + %zu cells, %zu mined rows)",
                    pass_digest(p).c_str(), p.matrix.cells.size(),
                    p.harden.cells.size(), p.mined_rows));
  std::string ovh = "pass-0 defense IPC overhead %:";
  for (std::size_t i = 0; i < p.matrix.presets.size(); ++i) {
    ovh += fmt(" %s=%.2f", p.matrix.presets[i].c_str(),
               p.matrix.ipc_overhead_pct[i]);
  }
  report.digest(ovh);
  std::uint64_t mitigation_events = 0, harden_events = 0;
  for (const auto& c : p.matrix.cells) mitigation_events += c.mitigation_events;
  for (const auto& c : p.harden.cells) harden_events += c.harden_events;
  report.digest(fmt("pass-0 events: mitigation %llu, harden %llu",
                    static_cast<unsigned long long>(mitigation_events),
                    static_cast<unsigned long long>(harden_events)));
  report.digest("Table I reference (paper, attack on host): IPC overhead "
                "0.6% offline, 1.1% online; the grid's column is the "
                "defenses' own cost");
  report.digest("The simulator's timing model has not been validated against "
                "hardware; simulated cycles are model outputs.");
  samples().add("mitigate.events", static_cast<double>(mitigation_events));
  samples().add("harden.events", static_cast<double>(harden_events));
}

/// Runs this binary as a child for one cold pass; returns its wall seconds
/// and CSV digest, or a negative time on failure.
std::pair<double, std::string> cold_pass_child(const RunOptions& o, int index) {
  const std::string seed = std::to_string(o.seed);
  const std::string idx = std::to_string(index);
  std::vector<std::string> args = {o.self_exe, "--workload", "defense-grid",
                                   "--seed", seed, "--cold-pass", idx};
  if (o.tiny) args.push_back("--tiny");
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) return {-1.0, ""};
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&fa, fds[0]);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, o.self_exe.c_str(), &fa, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  std::string out;
  if (rc == 0) {
    char buf[256];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    }
  }
  close(fds[0]);
  int status = 0;
  if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return {-1.0, ""};
  }
  double wall = -1.0;
  char digest[32] = {0};
  if (std::sscanf(out.c_str(), "%lf %31s", &wall, digest) != 2) {
    return {-1.0, ""};
  }
  return {wall, digest};
}

/// Anatomy of a pass (traced runs): the grid's own calls into the layers
/// below it, made directly with the pass's settings and seeds. The
/// defender's corpus and fit are run_defense_matrix's; a sample of the
/// grid's cells is rebuilt through ScenarioSession, scored by that
/// detector and replayed; the harden sweep's leak-stage rows build their
/// probes; the cost-column probes must match the grid's columns.
void pass_anatomy(const Pass& p, Report& report) {
  core::CorpusConfig ccfg;
  ccfg.windows_per_class = p.mconfig.effective_corpus_windows();
  ccfg.secret = p.mconfig.secret;
  ccfg.seed = p.mconfig.seed ^ 0xC0;
  ml::Dataset train;
  timed("core.corpus_s", [&] {
    train = core::build_benign_corpus(ccfg);
    train.append_all(core::build_attack_corpus(ccfg));
    return 0;
  });
  hid::DetectorConfig dcfg;
  dcfg.seed = p.mconfig.seed ^ 0xD1;
  hid::HidDetector detector(dcfg);
  timed("ml.fit_s." + dcfg.classifier, [&] {
    detector.fit(train);
    return 0;
  });

  const auto attacks = core::default_attacks(p.mconfig);
  const int attempts = p.mconfig.effective_attempts();
  const std::size_t n_presets = p.matrix.presets.size();
  for (std::size_t attack_i = 0; attack_i < attacks.size(); ++attack_i) {
    for (const char* preset : {"none", "lfence-bounds"}) {
      std::size_t preset_i = 0;
      while (preset_i < n_presets && p.matrix.presets[preset_i] != preset) {
        ++preset_i;
      }
      if (preset_i == n_presets) continue;
      core::ScenarioConfig sc = attacks[attack_i].scenario;
      sc.mitigations = mitigate::preset(preset);
      sc.seed = derive_seed(p.mconfig.seed ^ 0xCE11, attack_i);
      if (!replayable(sc)) continue;
      const std::size_t cell = attack_i * n_presets + preset_i;
      const std::uint64_t attempt_seed = derive_seed(
          p.mconfig.seed, cell * static_cast<std::size_t>(attempts));
      core::ScenarioRun run;
      const AttemptRef ref = reference_attempt(
          attacks[attack_i].name + "/" + preset, sc, attempt_seed, &run);
      timed("hid.score_ms",
            [&] { return detector.detection_rate(run.attack_windows); });
      replay_attempt(ref, report);
    }
  }
  const auto harden_attacks = core::default_harden_attacks(p.hconfig);
  for (std::size_t attack_i = 0; attack_i < harden_attacks.size();
       ++attack_i) {
    if (!harden_attacks[attack_i].scenario.leak_stage) continue;
    for (const std::string& preset : p.harden.presets) {
      core::ScenarioConfig sc = harden_attacks[attack_i].scenario;
      sc.harden = harden::preset(preset);
      sc.seed = derive_seed(p.hconfig.seed ^ 0xCE11, attack_i);
      time_probe_build(sc);
    }
  }
  // Cost-column probes: same arguments and seeds as the grid's own calls,
  // so the value must match the grid's column.
  for (std::size_t i = 0; i < n_presets; i += 3) {
    core::OverheadConfig oc;
    oc.repeats = p.mconfig.effective_overhead_repeats();
    oc.secret = p.mconfig.secret;
    oc.seed = derive_seed(p.mconfig.seed ^ 0x0E4, i);
    const double pct = timed("core.overhead_probe_s", [&] {
      return core::mitigation_overhead_pct(
          "basicmath", p.mconfig.host_scale,
          mitigate::preset(p.matrix.presets[i]), oc);
    });
    report.check(pct == p.matrix.ipc_overhead_pct[i],
                 "direct mitigation_overhead_pct matches the grid column for " +
                     p.matrix.presets[i]);
  }
  for (std::size_t i = 0; i < p.harden.presets.size(); i += 2) {
    core::OverheadConfig oc;
    oc.repeats = p.hconfig.effective_overhead_repeats();
    oc.secret = p.hconfig.secret;
    oc.seed = derive_seed(p.hconfig.seed ^ 0x0E4, i);
    const double pct = timed("core.overhead_probe_s", [&] {
      return core::harden_overhead_pct("basicmath", p.hconfig.host_scale,
                                       harden::preset(p.harden.presets[i]), oc);
    });
    report.check(pct == p.harden.ipc_overhead_pct[i],
                 "direct harden_overhead_pct matches the grid column for " +
                     p.harden.presets[i]);
  }
}

}  // namespace

int run_grid_cold_pass(const RunOptions& o) {
  const Pass p = run_pass(sub_seed(o.seed, 200), o.tiny);
  std::printf("%.9f %s\n", p.wall_s, pass_digest(p).c_str());
  return 0;
}

void run_grid_workload(const RunOptions& o, Report& report) {
  if (o.trace) {
    std::vector<core::ScenarioConfig> configs;
    for (const std::string& name : mitigate::preset_names()) {
      core::ScenarioConfig sc;
      sc.mitigations = mitigate::preset(name);
      configs.push_back(sc);
    }
    time_first_baselines(configs);
  }

  // Set-up: the first pass in a cold process is what one crs_matrix
  // invocation costs. This process's first pass is one sample; fresh child
  // processes running the same pass give the others.
  MemoDelta memo;
  const Pass first = run_pass(sub_seed(o.seed, 200), o.tiny);
  check_pass(first, o.plant_fault, report);
  digest_pass(first, report);
  std::vector<double> setup_s{first.wall_s};
  if (!o.trace) {
    for (int i = 0; i < (o.tiny ? 1 : 2); ++i) {
      const auto [wall, digest] = cold_pass_child(o, i);
      report.check(wall > 0 && digest == pass_digest(first),
                   "cold child pass reproduces the pass-0 grid CSVs");
      if (wall > 0) setup_s.push_back(wall);
    }
  }
  report.set("setup_s", median(setup_s), "s", setup_s.size(),
             "first (cold-process) pass, median over processes");

  // Later passes, each at a fresh seed, in a warm process. Traced runs
  // alternate untraced and traced passes for trace.overhead_frac.
  std::vector<double> pass_ms;
  double wall_s = 0.0, traced_s = 0.0, untraced_s = 0.0;
  double traced_wall_s = 0.0, unattributed_s = 0.0;
  int traced_n = 0, untraced_n = 0;
  for (std::uint64_t i = 1;; ++i) {
    const bool traced = o.trace && i % 2 == 0;
    Tracer::instance().set_enabled(traced);
    const double s0 = now_s();
    const Pass p = run_pass(sub_seed(o.seed, 200 + i), o.tiny);
    const double s1 = now_s();
    check_pass(p, false, report);
    report.info(fmt("pass %llu: %.3f s, %zu mined rows%s",
                    static_cast<unsigned long long>(i), p.wall_s, p.mined_rows,
                    traced ? " (traced)" : ""));
    pass_ms.push_back(p.wall_s * 1e3);
    wall_s += p.wall_s;
    if (traced) {
      traced_s += p.wall_s;
      ++traced_n;
      std::vector<Span> spans;
      for (Span& s : Tracer::instance().spans()) {
        if (s.start_s >= s0) spans.push_back(std::move(s));
      }
      traced_wall_s += s1 - s0;
      unattributed_s += unattributed_frac(spans, s0, s1) * (s1 - s0);
      if (traced_n == 1) pass_anatomy(p, report);
    } else {
      untraced_s += p.wall_s;
      ++untraced_n;
    }
    const bool enough = !o.trace || (traced_n >= 1 && untraced_n >= 1);
    if ((wall_s >= o.seconds || o.tiny) && enough) break;
  }
  Tracer::instance().set_enabled(o.trace);

  if (o.trace) {
    memo.commit();
    samples().add("trace.overhead_frac",
                  (traced_s / traced_n) / (untraced_s / untraced_n) - 1.0);
    samples().add("trace.unattributed_frac", unattributed_s / traced_wall_s);
    return;
  }
  const Tail t = tail(pass_ms);
  report.set("ops_per_s", static_cast<double>(pass_ms.size()) / wall_s, "1/s",
             pass_ms.size(), "grid passes per second in a warm process");
  report.set("op_ms_p50", median(pass_ms), "ms", pass_ms.size(),
             "sweep_s x 1000: median wall of a warm pass");
  report.info(fmt("tail (reported, not bounded): pass wall p%.0f = %.3f ms "
                  "over %zu passes",
                  t.pct, t.value, pass_ms.size()));
}

}  // namespace crbench
