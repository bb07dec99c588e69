#include "core/harden_matrix.hpp"

#include <sstream>

#include "core/overhead.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace crs::core {

namespace {

/// One attempt's contribution to a cell, collected by flat index so the
/// fold is thread-count-invariant.
struct AttemptOutcome {
  bool leaked = false;
  bool launched = false;
  bool base_leaked = false;
  harden::HardenSummary summary;
};

std::string format_double(double v) {
  std::ostringstream os;
  os.precision(4);
  os << std::fixed << v;
  return os.str();
}

}  // namespace

const HardenCell& HardenMatrixResult::cell(const std::string& attack,
                                           const std::string& preset) const {
  for (const auto& c : cells) {
    if (c.attack == attack && c.preset == preset) return c;
  }
  throw Error("no harden cell for attack '" + attack + "' preset '" + preset +
              "'");
}

harden::HardenSummary HardenMatrixResult::preset_summary(
    const std::string& preset) const {
  harden::HardenSummary out;
  bool found = false;
  for (const auto& c : cells) {
    if (c.preset != preset) continue;
    harden::accumulate(out, c.summary);
    found = true;
  }
  if (!found) throw Error("no harden column for preset '" + preset + "'");
  return out;
}

std::vector<HardenAttackSpec> default_harden_attacks(
    const HardenMatrixConfig& config) {
  std::vector<HardenAttackSpec> attacks;

  // The paper's injection as-is: a canary-unaware, link-time-addressed
  // stack overflow. The hardened columns are built to kill exactly this.
  {
    HardenAttackSpec a;
    a.name = "stack-overflow";
    a.scenario.variant = attack::SpectreVariant::kPht;
    a.scenario.rop_injected = true;
    a.scenario.host_scale = config.host_scale;
    a.scenario.secret = config.secret;
    attacks.push_back(a);
  }
  // Defense-aware CR-Spectre: the speculative probe leaks base delta,
  // canary and stack pointer first, then the payload is patched with them.
  {
    HardenAttackSpec a;
    a.name = "spec-probe-rop";
    a.scenario.variant = attack::SpectreVariant::kPht;
    a.scenario.rop_injected = true;
    a.scenario.leak_stage = true;
    a.scenario.host_scale = config.host_scale;
    a.scenario.secret = config.secret;
    attacks.push_back(a);
  }
  // Spectre 1.1: the speculative store overflow never commits a write, so
  // it is invisible to every architectural hardening layer.
  {
    HardenAttackSpec a;
    a.name = "spectre-1.1";
    a.scenario.rop_injected = false;
    a.scenario.spectre11 = true;
    a.scenario.secret = config.secret;
    attacks.push_back(a);
  }
  return attacks;
}

HardenMatrixResult run_harden_matrix(const HardenMatrixConfig& config) {
  HardenMatrixResult result;
  result.presets =
      config.presets.empty() ? harden::preset_names() : config.presets;
  // Validate up front (throws with the preset listing on a typo).
  std::vector<harden::HardenConfig> preset_configs;
  preset_configs.reserve(result.presets.size());
  for (const auto& name : result.presets) {
    preset_configs.push_back(harden::preset(name));
  }

  const std::vector<HardenAttackSpec> attacks = default_harden_attacks(config);
  for (const auto& a : attacks) result.attacks.push_back(a.name);

  const int attempts = config.effective_attempts();
  CRS_ENSURE(attempts > 0, "harden matrix needs at least one attempt");
  const std::size_t n_cells = attacks.size() * result.presets.size();

  // Unlike the mitigation matrix — where every preset of an attack shares
  // one set of binaries — the canary presets change the host scaffold and
  // the ASLR presets add a probe build, so the memos are warmed per CELL.
  // Seeds still derive per attack, so the host-scale jitter matches across
  // a row. Warming on the main thread keeps builds (and any trace events
  // they emit) off the workers.
  const auto cell_config = [&](std::size_t cell) {
    const std::size_t attack_i = cell / result.presets.size();
    const std::size_t preset_i = cell % result.presets.size();
    ScenarioConfig scenario = attacks[attack_i].scenario;
    scenario.harden = preset_configs[preset_i];
    scenario.seed = derive_seed(config.seed ^ 0xCE11, attack_i);
    return scenario;
  };
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    warm_scenario_memo(cell_config(cell));
  }

  ThreadPool pool;
  // Fan out over cells; each cell runs its attempts serially against its
  // own session. Attempt seeds derive from the flat item index alone and
  // the fold walks items in index order, so the matrix is identical for
  // any thread count.
  const std::vector<std::vector<AttemptOutcome>> cell_outcomes =
      parallel_map<std::vector<AttemptOutcome>>(
          pool, n_cells, [&](std::size_t cell) {
            ScenarioSession session(cell_config(cell));
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
              out.launched = run.attack_launched;
              out.base_leaked = run.leak_stage_ran && run.leak.found_base;
              out.summary = run.harden;
              outs.push_back(out);
            }
            return outs;
          });

  result.cells.resize(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    HardenCell& c = result.cells[cell];
    c.attack = result.attacks[cell / result.presets.size()];
    c.preset = result.presets[cell % result.presets.size()];
    for (const AttemptOutcome& out : cell_outcomes[cell]) {
      ++c.attempts;
      if (out.leaked) ++c.leaks;
      if (out.launched) ++c.launches;
      if (out.base_leaked) ++c.base_leaks;
      harden::accumulate(c.summary, out.summary);
      c.harden_events += out.summary.total_events();
    }
    c.leak_rate = static_cast<double>(c.leaks) / c.attempts;
  }

  // Cost column: what each hardening preset does to a clean host.
  OverheadConfig ocfg;
  ocfg.repeats = config.effective_overhead_repeats();
  ocfg.secret = config.secret;
  result.ipc_overhead_pct = parallel_map<double>(
      pool, result.presets.size(), [&](std::size_t i) {
        // Per-worker copy: writing the shared ocfg's seed from every worker
        // would race, and could hand preset i another preset's seed.
        OverheadConfig local = ocfg;
        local.seed = derive_seed(config.seed ^ 0x0E4, i);
        return harden_overhead_pct("basicmath", config.host_scale,
                                   preset_configs[i], local);
      });

  return result;
}

std::string harden_matrix_csv(const HardenMatrixResult& result) {
  std::ostringstream os;
  os << "attack,preset,attempts,launches,leaks,leak_rate,base_leaks,"
        "harden_events,ipc_overhead_pct\n";
  for (const auto& c : result.cells) {
    std::size_t preset_i = 0;
    while (result.presets[preset_i] != c.preset) ++preset_i;
    os << c.attack << ',' << c.preset << ',' << c.attempts << ','
       << c.launches << ',' << c.leaks << ',' << format_double(c.leak_rate)
       << ',' << c.base_leaks << ',' << c.harden_events << ','
       << format_double(result.ipc_overhead_pct[preset_i]) << '\n';
  }
  return os.str();
}

std::string harden_matrix_metrics_csv(const HardenMatrixResult& result) {
  std::ostringstream os;
  os << "preset,metric,value\n";
  for (const auto& preset : result.presets) {
    const harden::HardenSummary sum = result.preset_summary(preset);
    for (const harden::HardenSummaryField& f : harden::summary_fields()) {
      os << preset << ',' << f.name << ',' << sum.*(f.member) << '\n';
    }
    os << preset << ",total," << sum.total_events() << '\n';
  }
  return os.str();
}

}  // namespace crs::core
