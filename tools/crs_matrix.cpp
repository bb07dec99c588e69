// crs_matrix — the attack-vs-defense evaluation matrix.
//
//   crs_matrix                        full sweep, table to stdout
//   crs_matrix --quick                CI-sized sweep (fewer attempts)
//   crs_matrix --presets a,b,c        only these mitigation presets
//   crs_matrix --attempts N           attempts per (attack, preset) cell
//   crs_matrix --seed S               base seed (cells derive from it)
//   crs_matrix --csv <path>           write the matrix as CSV
//   crs_matrix --json <path>          write the matrix as JSON
//   crs_matrix --metrics <path>       write per-preset mitigation counters
//   crs_matrix --check                exit non-zero unless the expected
//                                     story holds: `none` leaks, CR-Spectre
//                                     evades the HID there, `full` blocks
//                                     every attack, and every armed preset
//                                     shows mitigation activity. A check
//                                     whose column --presets dropped is
//                                     skipped and named on stderr
//   crs_matrix --threads N            worker-pool width (results identical
//                                     for any value)
//   crs_matrix --exec interp|blocks   execution engine for every simulated
//                                     machine in the sweep (default blocks;
//                                     results identical for either — the
//                                     engines are bit-identical)
//   crs_matrix --bench-json <path>    append a perf record for the sweep
//   crs_matrix --mined N              append up to N mined-gadget attack
//                                     rows (gadget_hunter's miner over a
//                                     seeded generated corpus) after the
//                                     built-in attacks
//   crs_matrix --mined-seed S         corpus seed for --mined (default 2026)
//   crs_matrix --help                 print usage to stdout, exit 0
//   crs_matrix --harden-sweep         sweep the HARDENING presets (none,
//                                     aslr, canary, heap-guard, full)
//                                     against {stack-overflow,
//                                     spec-probe-rop, spectre-1.1} instead
//                                     of the mitigation matrix. --presets /
//                                     --attempts / --seed / --csv /
//                                     --metrics / --check / --quick apply;
//                                     --check gates the hardening story
//                                     (canary kills the classic overflow,
//                                     the speculative attacks pierce full)
//
// Sweeps {spectre-pht, spectre-rsb, cr-spectre} × {mitigation presets} and
// reports leak-success rate, HID detection over attack windows, mitigation
// engagement, and per-preset clean-host IPC overhead. Both grids come from
// the one driver in core/defense_matrix; --harden-sweep only picks which
// projection is printed, written and checked.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/defense_matrix.hpp"
#include "core/report.hpp"
#include "mine/mine.hpp"
#include "sim/cpu.hpp"
#include "support/error.hpp"
#include "support/flags.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"

using namespace crs;

namespace {

/// `--help` is a success, not a usage error: print to stdout, exit 0.
int help(const char* argv0) {
  std::printf("usage: %s [--quick] [--check] [--presets a,b,c] "
              "[--attempts N] [--seed S] [--csv <path>] [--json <path>] "
              "[--metrics <path>] [--threads N] "
              "[--exec interp|blocks] [--bench-json <path>] "
              "[--mined N] [--mined-seed S] [--harden-sweep]\n",
              argv0);
  return 0;
}

/// Up to `count` extra attack rows from the gadget miner: a small seeded
/// generated corpus is mined, and each scenario-eligible gadget becomes a
/// standalone "mined-<class>-<k>" row. Deterministic in (seed, count).
std::vector<core::AttackSpec> mined_attacks(
    const core::DefenseMatrixConfig& config, int count, std::uint64_t seed) {
  mine::CorpusOptions opt;
  opt.generated = 8;
  opt.seed = seed;
  const mine::CorpusReport report = mine::mine_corpus(opt);
  std::vector<core::AttackSpec> out;
  for (const auto& b : report.binaries) {
    for (const auto& g : b.gadgets) {
      if (!g.scenario_eligible) continue;
      if (static_cast<int>(out.size()) >= count) break;
      core::AttackSpec a;
      a.name = "mined-" + mine::gadget_class_name(g.cls) + "-" +
               std::to_string(out.size());
      a.scenario = mine::mined_scenario(g, config.secret, /*injected=*/false);
      out.push_back(a);
    }
  }
  if (static_cast<int>(out.size()) < count) {
    std::fprintf(stderr,
                 "[crs_matrix] corpus yielded %zu scenario-eligible mined "
                 "gadget(s) (wanted %d)\n",
                 out.size(), count);
  }
  return out;
}

/// Tallies a --check story. A check whose column the grid lacks (a
/// --presets subset) is skipped and named on stderr, in both stories.
struct Story {
  const core::DefenseMatrixResult& result;
  int failures = 0;
  int skipped = 0;

  /// True when the grid has column `preset`; otherwise names `check` as
  /// skipped.
  bool needs(const std::string& preset, const std::string& check) {
    const auto& p = result.presets;
    if (std::find(p.begin(), p.end(), preset) != p.end()) return true;
    std::fprintf(stderr, "[crs_matrix] check skipped (no '%s' column): %s\n",
                 preset.c_str(), check.c_str());
    ++skipped;
    return false;
  }

  void fail(const std::string& what) {
    std::fprintf(stderr, "[crs_matrix] CHECK FAILED: %s\n", what.c_str());
    ++failures;
  }
};

/// Both stories open alike: every row leaks in the undefended column, and
/// that column reports no `layer` activity.
void check_undefended(Story& story, const std::string& layer) {
  const core::DefenseMatrixResult& r = story.result;
  for (const auto& attack : r.attacks) {
    if (story.needs("none", attack + " leaks under 'none'") &&
        r.cell(attack, "none").leaks == 0) {
      story.fail(attack + " under 'none' never recovered the secret");
    }
  }
  if (story.needs("none", "'none' reports no " + layer + " activity")) {
    const std::uint64_t events = r.preset_summary("none").total_events();
    if (events != 0) {
      story.fail("'none' reported " + layer + " activity (" +
                 std::to_string(events) + " events)");
    }
  }
}

/// The mitigation story: the undefended column reproduces the paper's leak
/// and CR-Spectre's HID evasion, the full stack stops everything, and every
/// armed preset actually did something.
void mitigation_story(Story& story) {
  const core::DefenseMatrixResult& r = story.result;
  check_undefended(story, "mitigation");
  for (const auto& attack : r.attacks) {
    if (!story.needs("full", attack + " blocked under 'full'")) continue;
    const auto& full = r.cell(attack, "full");
    if (full.leaks != 0) {
      story.fail(attack + " under 'full' still leaked (" +
                 std::to_string(full.leaks) + "/" +
                 std::to_string(full.attempts) + ")");
    }
  }
  for (const auto& preset : r.presets) {
    if (preset != "none" && r.preset_summary(preset).total_events() == 0) {
      story.fail("preset '" + preset + "' reported zero mitigation activity");
    }
  }
  if (story.needs("none", "cr-spectre evades the HID that catches "
                          "spectre-pht")) {
    const double cr = r.cell("cr-spectre", "none").hid_detection;
    const double pht = r.cell("spectre-pht", "none").hid_detection;
    if (!(cr < pht)) {
      story.fail("cr-spectre's HID detection under 'none' (" +
                 fixed(cr, 4) + ") is not below spectre-pht's (" +
                 fixed(pht, 4) + ")");
    }
  }
}

/// The hardening story: the classic overflow dies under canary, aslr and
/// full, and both speculative attacks keep leaking under full.
void harden_story(Story& story) {
  const core::DefenseMatrixResult& r = story.result;
  check_undefended(story, "hardening");
  for (const std::string preset : {"canary", "aslr", "full"}) {
    if (story.needs(preset, "stack-overflow stopped by '" + preset + "'") &&
        r.cell("stack-overflow", preset).leaks != 0) {
      story.fail("stack-overflow under '" + preset + "' still leaked");
    }
  }
  for (const std::string attack : {"spec-probe-rop", "spectre-1.1"}) {
    if (story.needs("full", attack + " leaks under 'full'") &&
        r.cell(attack, "full").leaks == 0) {
      story.fail(attack + " under 'full' never leaked — the speculative "
                 "bypass is broken");
    }
  }
}

/// What --harden-sweep switches: how a cell prints, which CSVs are written
/// and which story --check holds the grid to. Everything else is one path.
struct GridMode {
  const char* bench_prefix;  ///< --bench-json record name prefix
  const char* corner;        ///< table corner label
  const char* legend;        ///< what a table cell shows
  std::string (*cell_text)(const core::MatrixCell&);
  std::string (*csv)(const core::DefenseMatrixResult&);
  std::string (*metrics_csv)(const core::DefenseMatrixResult&);
  void (*story)(Story&);
  const char* passed;  ///< stderr line when the story holds
};

const GridMode kMitigationMode{
    "",
    "attack\\preset",
    "leak-rate / HID-detection",
    [](const core::MatrixCell& c) {
      return fixed(c.leak_rate, 2) + "/" + fixed(c.hid_detection, 2);
    },
    core::matrix_csv,
    core::matrix_metrics_csv,
    mitigation_story,
    "check passed: none leaks, full blocks, every armed preset engaged",
};

const GridMode kHardenMode{
    "harden-",
    "attack\\harden",
    "leak-rate / launches",
    [](const core::MatrixCell& c) {
      return fixed(c.leak_rate, 2) + "/" + std::to_string(c.launches);
    },
    core::harden_matrix_csv,
    core::harden_matrix_metrics_csv,
    harden_story,
    "harden check passed: hardening kills the classic overflow, the "
    "speculative attacks pierce it",
};

void print_table(const core::DefenseMatrixResult& result,
                 const GridMode& mode) {
  std::printf("%-14s", mode.corner);
  for (const auto& p : result.presets) std::printf(" %14s", p.c_str());
  std::printf("\n");
  for (const auto& attack : result.attacks) {
    std::printf("%-14s", attack.c_str());
    for (const auto& preset : result.presets) {
      std::printf(" %14s",
                  mode.cell_text(result.cell(attack, preset)).c_str());
    }
    std::printf("\n");
  }
  std::printf("%-14s", "ipc-ovh-%");
  for (std::size_t i = 0; i < result.presets.size(); ++i) {
    std::printf(" %14.2f", result.ipc_overhead_pct[i]);
  }
  std::printf("\n(cells: %s)\n", mode.legend);
}

void write_output(const std::string& path, const std::string& content) {
  if (path.empty()) return;
  core::write_text_file(path, content);
  std::fprintf(stderr, "[crs_matrix] wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    core::DefenseMatrixConfig config;
    bool check = false;
    bool harden_sweep = false;
    int mined = 0;
    std::uint64_t mined_seed = 2026;
    std::string csv_path, json_path, metrics_path, bench_json_path;

    std::string value;
    FlagCursor args(argc, argv);
    while (args.more()) {
      unsigned threads = 0;
      if (args.take("--quick")) {
        config.quick = true;
      } else if (args.take("--check")) {
        check = true;
      } else if (args.take("--harden-sweep")) {
        harden_sweep = true;
      } else if (args.take_value("--presets", value)) {
        config.presets = split(value, ',');
      } else if (args.take_number("--attempts", config.attempts)) {
      } else if (args.take_number("--seed", config.seed)) {
      } else if (args.take_value("--csv", csv_path)) {
      } else if (args.take_value("--json", json_path)) {
      } else if (args.take_value("--metrics", metrics_path)) {
      } else if (args.take_value("--bench-json", bench_json_path)) {
      } else if (args.take_number("--mined", mined)) {
      } else if (args.take_number("--mined-seed", mined_seed)) {
      } else if (args.take_number("--threads", threads)) {
        set_thread_override(threads);
      } else if (args.take_value("--exec", value)) {
        sim::apply_exec_flag(value);
      } else if (args.take("--help")) {
        return help(argv[0]);
      } else {
        args.unknown();
      }
    }

    if (harden_sweep && mined > 0) {
      throw Error("--mined applies to the mitigation matrix, not "
                  "--harden-sweep");
    }
    if (harden_sweep && !json_path.empty()) {
      throw Error("--json is not supported with --harden-sweep (use "
                  "--csv / --metrics)");
    }
    const GridMode& mode = harden_sweep ? kHardenMode : kMitigationMode;

    const auto t0 = std::chrono::steady_clock::now();
    const core::DefenseMatrixResult result =
        harden_sweep ? core::run_harden_matrix(config)
                     : core::run_defense_matrix(
                           config, mined > 0
                                       ? mined_attacks(config, mined,
                                                       mined_seed)
                                       : std::vector<core::AttackSpec>{});
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

    print_table(result, mode);
    write_output(csv_path, mode.csv(result));
    if (!json_path.empty()) write_output(json_path, core::matrix_json(result));
    write_output(metrics_path, mode.metrics_csv(result));
    if (!bench_json_path.empty()) {
      // The sweep spans presets, so the config's mitigation field records
      // the sweep set rather than a single armed preset.
      std::string presets;
      for (const auto& p : result.presets) {
        if (!presets.empty()) presets += ',';
        presets += p;
      }
      core::append_bench_record(
          bench_json_path,
          std::string("crs_matrix:") + mode.bench_prefix +
              (config.quick ? "quick" : "full"),
          wall_ms, static_cast<double>(result.cells.size()) / (wall_ms / 1e3),
          presets);
    }
    if (!check) return 0;
    Story story{result};
    mode.story(story);
    if (story.failures != 0) return 1;
    if (story.skipped == 0) {
      std::fprintf(stderr, "[crs_matrix] %s\n", mode.passed);
    } else {
      std::fprintf(stderr,
                   "[crs_matrix] check passed with %d check(s) skipped\n",
                   story.skipped);
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "crs_matrix: %s\n", e.what());
    return 1;
  }
}
