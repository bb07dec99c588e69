#include "core/defense_matrix.hpp"

#include <span>
#include <sstream>

#include "core/corpus.hpp"
#include "core/overhead.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"

namespace crs::core {

namespace {

/// One defense column: both layers are armed on every cell of the column.
struct DefenseColumn {
  std::string name;
  mitigate::MitigationConfig mitigation;
  harden::HardenConfig harden;

  bool defended() const { return mitigation.any() || harden.any(); }
};

/// The grid's up-front preset check, shared by both grids: resolves the
/// requested names (empty = every preset of the layer) through the layer's
/// table, which throws with the preset listing on a typo, into the column
/// member `layer`, and rejects a name listed twice — a repeated column
/// would run twice and be double-counted by preset_summary.
template <typename Config>
std::vector<DefenseColumn> preset_columns(
    const std::vector<std::string>& requested, const FlagTable<Config>& table,
    Config DefenseColumn::*layer) {
  std::vector<DefenseColumn> columns;
  for (const std::string& name :
       requested.empty() ? table.preset_names() : requested) {
    for (const DefenseColumn& c : columns) {
      if (c.name == name) {
        throw Error("preset '" + name + "' is listed more than once");
      }
    }
    DefenseColumn column{name, {}, {}};
    column.*layer = table.preset(name);
    columns.push_back(column);
  }
  return columns;
}

/// What a cell's fold reads of one attempt.
struct AttemptTally {
  bool leaked = false;
  bool launched = false;
  bool base_leak = false;
  double detection = 0.0;  ///< 0 in a grid that scores no detector
  DefenseSummary summary;
};

/// One item of a grid's fan-out: `attempts` attempts of cell `index` from
/// attempt `first` on, or, when `attempts` is 0, one cost-column probe run
/// of column `index`.
struct GridItem {
  std::size_t index = 0;
  int first = 0;
  int attempts = 0;
  OverheadProbe probe;
};

/// A cell item's tallies in attempt order, or a probe item's IPC.
struct ItemResult {
  std::vector<AttemptTally> tallies;
  double ipc = 0.0;
};

/// The one grid driver: `rows` × `columns`, each cell's attempts scored by
/// `detector` when one is given.
DefenseMatrixResult run_grid(const DefenseMatrixConfig& config,
                             const std::vector<AttackSpec>& rows,
                             const std::vector<DefenseColumn>& columns,
                             const hid::HidDetector* detector) {
  DefenseMatrixResult result;
  for (const auto& c : columns) result.presets.push_back(c.name);
  for (const auto& a : rows) result.attacks.push_back(a.name);

  const int attempts = config.effective_attempts();
  CRS_ENSURE(attempts > 0, "defense grid needs at least one attempt");
  const std::size_t n_cells = rows.size() * columns.size();

  // A cell's sessions share one config. The session seed is derived per
  // ATTACK — not per cell — so every column of a row shares the same
  // host-scale jitter. Columns can still change the binaries (the canary
  // presets change the host scaffold, the ASLR presets add a probe build),
  // so the memos are warmed per cell, on the main thread: builds, and any
  // trace events they emit, stay off the workers.
  const auto cell_config = [&](std::size_t cell) {
    const std::size_t attack_i = cell / columns.size();
    const DefenseColumn& column = columns[cell % columns.size()];
    ScenarioConfig scenario = rows[attack_i].scenario;
    scenario.mitigations = column.mitigation;
    scenario.harden = column.harden;
    scenario.seed = derive_seed(config.seed ^ 0xCE11, attack_i);
    return scenario;
  };

  // One fan-out runs the whole grid, cells first, then the cost column. A
  // cell whose session shares runs is one item: its attempts cost about
  // one execution. A cell whose every run reads its seed (layout
  // randomisation, the leak stage) gains nothing from one session, so it
  // becomes one item per attempt and its attempts spread over the pool.
  std::vector<GridItem> items;
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    if (warm_scenario_memo(cell_config(cell))) {
      items.push_back(
          {.index = cell, .first = 0, .attempts = attempts, .probe = {}});
    } else {
      for (int a = 0; a < attempts; ++a) {
        items.push_back(
            {.index = cell, .first = a, .attempts = 1, .probe = {}});
      }
    }
  }
  const std::size_t n_cell_items = items.size();

  // Cost column: what each column's defenses do to a clean, non-attacked
  // host, one item per probe run of defense_overhead_pct. An undefended
  // column's baseline and defended probes are the same run, so its
  // overhead is +0.0 by construction and it queues none.
  std::vector<OverheadConfig> costs(columns.size());
  std::vector<std::vector<OverheadProbe>> probes(columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i) {
    costs[i].repeats = config.effective_overhead_repeats();
    costs[i].secret = config.secret;
    costs[i].seed = derive_seed(config.seed ^ 0x0E4, i);
    probes[i] = overhead_probes(costs[i]);
    if (!columns[i].defended()) continue;
    for (const OverheadProbe& probe : probes[i]) {
      items.push_back({.index = i, .probe = probe});
    }
  }

  // Every attempt derives its seed from its flat (attack × column ×
  // attempt) index alone, each item runs on a session of its own (never
  // thread_session: the calling thread may be a serve shard, whose cached
  // sessions are its warm set), and results are folded by item index, so
  // the grid is identical for any thread count and any split of a cell.
  ThreadPool pool;
  const std::vector<ItemResult> results = parallel_map<ItemResult>(
      pool, items.size(), [&](std::size_t i) {
        const GridItem& item = items[i];
        ItemResult out;
        if (item.attempts == 0) {
          const DefenseColumn& column = columns[item.index];
          out.ipc = run_overhead_probe("basicmath", config.host_scale,
                                       column.mitigation, column.harden,
                                       costs[item.index], item.probe);
          return out;
        }
        ScenarioSession session(cell_config(item.index));
        std::vector<std::uint64_t> seeds;
        for (int a = item.first; a < item.first + item.attempts; ++a) {
          seeds.push_back(derive_seed(
              config.seed, item.index * static_cast<std::size_t>(attempts) +
                               static_cast<std::size_t>(a)));
        }
        // Each call serves a non-empty prefix of the seeds not yet served.
        for (std::size_t next = 0; next < seeds.size();) {
          const std::vector<ScenarioRun> runs = session.run_attempts(
              std::span(seeds).subspan(next), session.config().perturb_params);
          next += runs.size();
          for (const ScenarioRun& run : runs) {
            hid::record_run_metrics(run.profile);
            out.tallies.push_back(
                {.leaked = run.secret_recovered,
                 .launched = run.attack_launched,
                 .base_leak = run.leak_stage_ran && run.leak.found_base,
                 .detection = detector ? detector->detection_rate(
                                             run.attack_windows)
                                       : 0.0,
                 .summary = {run.mitigation, run.harden}});
          }
        }
        return out;
      });

  // Fold cells in cell order and each cell's attempts in attempt order.
  result.cells.resize(n_cells);
  for (std::size_t cell = 0; cell < n_cells; ++cell) {
    result.cells[cell].attack = result.attacks[cell / columns.size()];
    result.cells[cell].preset = result.presets[cell % columns.size()];
  }
  for (std::size_t i = 0; i < n_cell_items; ++i) {
    MatrixCell& c = result.cells[items[i].index];
    for (const AttemptTally& t : results[i].tallies) {
      ++c.attempts;
      if (t.leaked) ++c.leaks;
      if (t.launched) ++c.launches;
      if (t.base_leak) ++c.base_leaks;
      c.hid_detection += t.detection;
      mitigate::accumulate(c.summary.mitigation, t.summary.mitigation);
      harden::accumulate(c.summary.harden, t.summary.harden);
      c.mitigation_events += t.summary.mitigation.total_events();
      c.harden_events += t.summary.harden.total_events();
    }
  }
  for (MatrixCell& c : result.cells) {
    c.leak_rate = static_cast<double>(c.leaks) / c.attempts;
    c.hid_detection /= c.attempts;
  }

  // Fold each column's probes in probe order, as defense_overhead_pct does.
  std::vector<std::vector<double>> ipc(columns.size());
  for (std::size_t i = n_cell_items; i < items.size(); ++i) {
    ipc[items[i].index].push_back(results[i].ipc);
  }
  for (std::size_t i = 0; i < columns.size(); ++i) {
    result.ipc_overhead_pct.push_back(
        columns[i].defended() ? overhead_pct(probes[i], ipc[i]) : 0.0);
  }
  return result;
}

/// The IPC overhead of the column that row-major cell `i` belongs to.
double cell_overhead(const DefenseMatrixResult& result, std::size_t i) {
  return result.ipc_overhead_pct[i % result.presets.size()];
}

/// `preset,metric,value` rows of one layer's summary, plus its total.
template <typename Summary>
std::string metrics_csv(const DefenseMatrixResult& result,
                        Summary DefenseSummary::*layer,
                        const CounterTable<Summary>& fields) {
  std::ostringstream os;
  os << "preset,metric,value\n";
  for (const auto& preset : result.presets) {
    const Summary sum = result.preset_summary(preset).*layer;
    for (const auto& f : fields) {
      os << preset << ',' << f.name << ',' << sum.*(f.member) << '\n';
    }
    os << preset << ",total," << fields.total(sum) << '\n';
  }
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

DefenseSummary DefenseMatrixResult::preset_summary(
    const std::string& preset) const {
  DefenseSummary out;
  bool found = false;
  for (const auto& c : cells) {
    if (c.preset != preset) continue;
    mitigate::accumulate(out.mitigation, c.summary.mitigation);
    harden::accumulate(out.harden, c.summary.harden);
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

std::vector<AttackSpec> default_harden_attacks(
    const DefenseMatrixConfig& config) {
  std::vector<AttackSpec> attacks;

  // The paper's injection as-is: a canary-unaware, link-time-addressed
  // stack overflow. The hardened columns are built to kill exactly this.
  {
    AttackSpec a;
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
    AttackSpec a;
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
    AttackSpec a;
    a.name = "spectre-1.1";
    a.scenario.rop_injected = false;
    a.scenario.spectre11 = true;
    a.scenario.secret = config.secret;
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
  const std::vector<DefenseColumn> columns = preset_columns(
      config.presets, mitigate::flag_table(), &DefenseColumn::mitigation);
  std::vector<AttackSpec> attacks = default_attacks(config);
  attacks.insert(attacks.end(), extra_attacks.begin(), extra_attacks.end());

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

  return run_grid(config, attacks, columns, &detector);
}

DefenseMatrixResult run_harden_matrix(const DefenseMatrixConfig& config) {
  const std::vector<DefenseColumn> columns = preset_columns(
      config.presets, harden::flag_table(), &DefenseColumn::harden);
  return run_grid(config, default_harden_attacks(config), columns, nullptr);
}

std::string matrix_csv(const DefenseMatrixResult& result) {
  std::ostringstream os;
  os << "attack,preset,attempts,leaks,leak_rate,hid_detection,"
        "mitigation_events,ipc_overhead_pct\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const MatrixCell& c = result.cells[i];
    os << c.attack << ',' << c.preset << ',' << c.attempts << ',' << c.leaks
       << ',' << fixed(c.leak_rate, 4) << ',' << fixed(c.hid_detection, 4)
       << ',' << c.mitigation_events << ','
       << fixed(cell_overhead(result, i), 4) << '\n';
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
    os << (i ? ", " : "") << fixed(result.ipc_overhead_pct[i], 4);
  }
  os << "],\n  \"cells\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const auto& c = result.cells[i];
    os << "    {\"attack\": \"" << c.attack << "\", \"preset\": \"" << c.preset
       << "\", \"attempts\": " << c.attempts << ", \"leaks\": " << c.leaks
       << ", \"leak_rate\": " << fixed(c.leak_rate, 4)
       << ", \"hid_detection\": " << fixed(c.hid_detection, 4)
       << ", \"mitigation_events\": " << c.mitigation_events << '}'
       << (i + 1 < result.cells.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
  return os.str();
}

std::string matrix_metrics_csv(const DefenseMatrixResult& result) {
  return metrics_csv(result, &DefenseSummary::mitigation,
                     mitigate::summary_fields());
}

std::string harden_matrix_csv(const DefenseMatrixResult& result) {
  std::ostringstream os;
  os << "attack,preset,attempts,launches,leaks,leak_rate,base_leaks,"
        "harden_events,ipc_overhead_pct\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const MatrixCell& c = result.cells[i];
    os << c.attack << ',' << c.preset << ',' << c.attempts << ','
       << c.launches << ',' << c.leaks << ',' << fixed(c.leak_rate, 4) << ','
       << c.base_leaks << ',' << c.harden_events << ','
       << fixed(cell_overhead(result, i), 4) << '\n';
  }
  return os.str();
}

std::string harden_matrix_metrics_csv(const DefenseMatrixResult& result) {
  return metrics_csv(result, &DefenseSummary::harden,
                     harden::summary_fields());
}

}  // namespace crs::core
