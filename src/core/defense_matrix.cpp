#include "core/defense_matrix.hpp"

#include <sstream>

#include "core/corpus.hpp"
#include "core/overhead.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace crs::core {

namespace {

/// One attempt's contribution to a cell, collected by flat index so the
/// fold is thread-count-invariant.
struct AttemptOutcome {
  bool leaked = false;
  double detection = 0.0;
  mitigate::MitigationSummary mitigation;
};

std::string format_double(double v) {
  std::ostringstream os;
  os.precision(4);
  os << std::fixed << v;
  return os.str();
}

}  // namespace

const MatrixCell& DefenseMatrixResult::cell(const std::string& attack,
                                            const std::string& preset) const {
  for (const auto& c : cells) {
    if (c.attack == attack && c.preset == preset) return c;
  }
  throw Error("no matrix cell for attack '" + attack + "' preset '" + preset +
              "'");
}

mitigate::MitigationSummary DefenseMatrixResult::preset_summary(
    const std::string& preset) const {
  mitigate::MitigationSummary out;
  bool found = false;
  for (const auto& c : cells) {
    if (c.preset != preset) continue;
    mitigate::accumulate(out, c.summary);
    found = true;
  }
  if (!found) throw Error("no matrix column for preset '" + preset + "'");
  return out;
}

std::vector<AttackSpec> default_attacks(const DefenseMatrixConfig& config) {
  std::vector<AttackSpec> attacks;

  // Plain (standalone) Spectre, the paper's "traditional" baseline: one
  // PHT-trained bounds-check bypass, one RSB return-misdirection.
  {
    AttackSpec a;
    a.name = "spectre-pht";
    a.scenario.variant = attack::SpectreVariant::kPht;
    a.scenario.rop_injected = false;
    a.scenario.secret = config.secret;
    attacks.push_back(a);
  }
  {
    AttackSpec a;
    a.name = "spectre-rsb";
    a.scenario.variant = attack::SpectreVariant::kRsb;
    a.scenario.rop_injected = false;
    a.scenario.secret = config.secret;
    attacks.push_back(a);
  }
  // CR-Spectre: ROP-injected into the whitelisted host, with the offline
  // attacker's static perturbation variant (cf. Fig. 5b).
  {
    AttackSpec a;
    a.name = "cr-spectre";
    a.scenario.variant = attack::SpectreVariant::kPht;
    a.scenario.rop_injected = true;
    a.scenario.host_scale = config.host_scale;
    a.scenario.secret = config.secret;
    a.scenario.perturb = true;
    a.scenario.perturb_params.delay = 500;
    a.scenario.perturb_params.loop_count = 16;
    a.scenario.perturb_params.style = perturb::MimicStyle::kBranchy;
    attacks.push_back(a);
  }
  return attacks;
}

DefenseMatrixResult run_defense_matrix(const DefenseMatrixConfig& config) {
  return run_defense_matrix(config, {});
}

DefenseMatrixResult run_defense_matrix(
    const DefenseMatrixConfig& config,
    const std::vector<AttackSpec>& extra_attacks) {
  DefenseMatrixResult result;
  result.presets =
      config.presets.empty() ? mitigate::preset_names() : config.presets;
  // Validate up front (throws with the preset listing on a typo).
  std::vector<mitigate::MitigationConfig> preset_configs;
  preset_configs.reserve(result.presets.size());
  for (const auto& name : result.presets) {
    preset_configs.push_back(mitigate::preset(name));
  }

  std::vector<AttackSpec> attacks = default_attacks(config);
  attacks.insert(attacks.end(), extra_attacks.begin(), extra_attacks.end());
  for (const auto& a : attacks) result.attacks.push_back(a.name);

  // The defender trains ONCE, on unmitigated traces: the matrix asks how a
  // fixed deployed detector fares as the hardware/kernel defenses vary, so
  // every cell faces the same model.
  CorpusConfig ccfg;
  ccfg.windows_per_class = config.effective_corpus_windows();
  ccfg.secret = config.secret;
  ccfg.seed = config.seed ^ 0xC0;
  const ml::Dataset benign = build_benign_corpus(ccfg);
  const ml::Dataset attack_set = build_attack_corpus(ccfg);
  hid::DetectorConfig dcfg;
  dcfg.seed = config.seed ^ 0xD1;
  ml::Dataset train = benign;
  train.append_all(attack_set);
  const hid::HidDetector detector = hid::trained_detector(dcfg, train);

  const int attempts = config.effective_attempts();
  CRS_ENSURE(attempts > 0, "defense matrix needs at least one attempt");
  const std::size_t n_cells = attacks.size() * result.presets.size();
  const std::size_t n_items = n_cells * static_cast<std::size_t>(attempts);

  // Every cell owns one session. The session seed is derived per ATTACK —
  // not per cell — so every preset of an attack shares the same host scale,
  // and therefore the same memoized workload build and ROP plan (the
  // mitigations only change the machine/kernel, never the binaries).
  // Warming the memos on the main thread keeps the builds off the workers
  // entirely.
  for (std::size_t attack_i = 0; attack_i < attacks.size(); ++attack_i) {
    ScenarioConfig warm = attacks[attack_i].scenario;
    warm.seed = derive_seed(config.seed ^ 0xCE11, attack_i);
    warm_scenario_memo(warm);
  }

  ThreadPool pool;
  // Fan out over cells; each cell runs its attempts serially against its
  // own session (pool items scatter across threads, so per-attempt fan-out
  // would build a session per attempt instead of rolling one back).
  // Every attempt still derives its seed from its flat (attack × preset ×
  // attempt) item index alone, and the fold below walks items in index
  // order, so the matrix is identical for any thread count.
  const std::vector<std::vector<AttemptOutcome>> cell_outcomes =
      parallel_map<std::vector<AttemptOutcome>>(
          pool, n_cells, [&](std::size_t cell) {
            const std::size_t attack_i = cell / result.presets.size();
            const std::size_t preset_i = cell % result.presets.size();

            ScenarioConfig scenario = attacks[attack_i].scenario;
            scenario.mitigations = preset_configs[preset_i];
            scenario.seed = derive_seed(config.seed ^ 0xCE11, attack_i);
            ScenarioSession session(scenario);

            std::vector<AttemptOutcome> outs;
            outs.reserve(static_cast<std::size_t>(attempts));
            for (int a = 0; a < attempts; ++a) {
              const std::size_t item =
                  cell * static_cast<std::size_t>(attempts) +
                  static_cast<std::size_t>(a);
              const ScenarioRun run =
                  session.run_attempt(derive_seed(config.seed, item));
              AttemptOutcome out;
              out.leaked = run.secret_recovered;
              out.detection = detector.detection_rate(run.attack_windows);
              out.mitigation = run.mitigation;
              outs.push_back(out);
            }
            return outs;
          });
  std::vector<AttemptOutcome> outcomes;
  outcomes.reserve(n_items);
  for (const auto& cell : cell_outcomes) {
    outcomes.insert(outcomes.end(), cell.begin(), cell.end());
  }

  result.cells.resize(n_cells);
  for (std::size_t item = 0; item < outcomes.size(); ++item) {
    const std::size_t cell = item / static_cast<std::size_t>(attempts);
    MatrixCell& c = result.cells[cell];
    if (c.attempts == 0) {
      c.attack = result.attacks[cell / result.presets.size()];
      c.preset = result.presets[cell % result.presets.size()];
    }
    ++c.attempts;
    if (outcomes[item].leaked) ++c.leaks;
    c.hid_detection += outcomes[item].detection;
    mitigate::accumulate(c.summary, outcomes[item].mitigation);
    c.mitigation_events += outcomes[item].mitigation.total_events();
  }
  for (MatrixCell& c : result.cells) {
    c.leak_rate = static_cast<double>(c.leaks) / c.attempts;
    c.hid_detection /= c.attempts;
  }

  // Cost column: what each preset does to a clean, non-attacked host.
  OverheadConfig ocfg;
  ocfg.repeats = config.effective_overhead_repeats();
  ocfg.secret = config.secret;
  result.ipc_overhead_pct = parallel_map<double>(
      pool, result.presets.size(), [&](std::size_t i) {
        // Per-worker copy: writing the shared ocfg's seed from every worker
        // would race, and could hand preset i another preset's seed.
        OverheadConfig local = ocfg;
        local.seed = derive_seed(config.seed ^ 0x0E4, i);
        return mitigation_overhead_pct("basicmath", config.host_scale,
                                       preset_configs[i], local);
      });

  return result;
}

std::string matrix_csv(const DefenseMatrixResult& result) {
  std::ostringstream os;
  os << "attack,preset,attempts,leaks,leak_rate,hid_detection,"
        "mitigation_events,ipc_overhead_pct\n";
  for (const auto& c : result.cells) {
    std::size_t preset_i = 0;
    while (result.presets[preset_i] != c.preset) ++preset_i;
    os << c.attack << ',' << c.preset << ',' << c.attempts << ',' << c.leaks
       << ',' << format_double(c.leak_rate) << ','
       << format_double(c.hid_detection) << ',' << c.mitigation_events << ','
       << format_double(result.ipc_overhead_pct[preset_i]) << '\n';
  }
  return os.str();
}

std::string matrix_json(const DefenseMatrixResult& result) {
  std::ostringstream os;
  os << "{\n  \"presets\": [";
  for (std::size_t i = 0; i < result.presets.size(); ++i) {
    os << (i ? ", " : "") << '"' << result.presets[i] << '"';
  }
  os << "],\n  \"attacks\": [";
  for (std::size_t i = 0; i < result.attacks.size(); ++i) {
    os << (i ? ", " : "") << '"' << result.attacks[i] << '"';
  }
  os << "],\n  \"ipc_overhead_pct\": [";
  for (std::size_t i = 0; i < result.ipc_overhead_pct.size(); ++i) {
    os << (i ? ", " : "") << format_double(result.ipc_overhead_pct[i]);
  }
  os << "],\n  \"cells\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const auto& c = result.cells[i];
    os << "    {\"attack\": \"" << c.attack << "\", \"preset\": \"" << c.preset
       << "\", \"attempts\": " << c.attempts << ", \"leaks\": " << c.leaks
       << ", \"leak_rate\": " << format_double(c.leak_rate)
       << ", \"hid_detection\": " << format_double(c.hid_detection)
       << ", \"mitigation_events\": " << c.mitigation_events << '}'
       << (i + 1 < result.cells.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string matrix_metrics_csv(const DefenseMatrixResult& result) {
  std::ostringstream os;
  os << "preset,metric,value\n";
  for (const auto& preset : result.presets) {
    const mitigate::MitigationSummary sum = result.preset_summary(preset);
    for (const mitigate::SummaryField& f : mitigate::summary_fields()) {
      os << preset << ',' << f.name << ',' << sum.*(f.member) << '\n';
    }
    os << preset << ",total," << sum.total_events() << '\n';
  }
  return os.str();
}

}  // namespace crs::core
