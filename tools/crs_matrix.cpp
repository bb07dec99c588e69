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
//                                     story holds: `none` leaks, `full`
//                                     blocks every attack, and every armed
//                                     preset shows mitigation activity
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
// engagement, and per-preset clean-host IPC overhead.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/defense_matrix.hpp"
#include "core/harden_matrix.hpp"
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

void apply_exec_flag(const std::string& value) {
  if (const auto engine = sim::parse_exec_engine(value)) {
    sim::set_default_exec_engine(*engine);
  } else {
    throw Error("--exec wants 'interp' or 'blocks', got '" + value + "'");
  }
}

/// The CI gate: the undefended column must reproduce the paper's leak, the
/// full stack must stop everything, and every armed preset must actually
/// have done something.
int check_story(const core::DefenseMatrixResult& result) {
  int failures = 0;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "[crs_matrix] CHECK FAILED: %s\n", what.c_str());
    ++failures;
  };
  for (const auto& attack : result.attacks) {
    const auto& undefended = result.cell(attack, "none");
    if (undefended.leaks == 0) {
      fail(attack + " under 'none' never recovered the secret");
    }
    const auto& full = result.cell(attack, "full");
    if (full.leaks != 0) {
      fail(attack + " under 'full' still leaked (" +
           std::to_string(full.leaks) + "/" +
           std::to_string(full.attempts) + ")");
    }
  }
  for (const auto& preset : result.presets) {
    const std::uint64_t events = result.preset_summary(preset).total_events();
    if (preset == "none") {
      if (events != 0) {
        fail("'none' reported mitigation activity (" +
             std::to_string(events) + " events)");
      }
    } else if (events == 0) {
      fail("preset '" + preset + "' reported zero mitigation activity");
    }
  }
  if (failures == 0) {
    std::fprintf(stderr, "[crs_matrix] check passed: none leaks, full "
                         "blocks, every armed preset engaged\n");
  }
  return failures == 0 ? 0 : 1;
}

/// The harden-sweep CI gate: the classic overflow must die under canary,
/// aslr and full, both speculative attacks must keep leaking under full,
/// every row must leak in the unhardened column, and the none column must
/// report zero hardening activity.
int check_harden_story(const core::HardenMatrixResult& result) {
  int failures = 0;
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "[crs_matrix] CHECK FAILED: %s\n", what.c_str());
    ++failures;
  };
  const auto has = [&](const char* name) {
    for (const auto& p : result.presets) {
      if (p == name) return true;
    }
    return false;
  };
  for (const auto& attack : result.attacks) {
    if (has("none") && result.cell(attack, "none").leaks == 0) {
      fail(attack + " under 'none' never recovered the secret");
    }
  }
  for (const char* preset : {"canary", "aslr", "full"}) {
    if (!has(preset)) continue;
    const auto& c = result.cell("stack-overflow", preset);
    if (c.leaks != 0) {
      fail("stack-overflow under '" + std::string(preset) + "' still leaked");
    }
  }
  if (has("full")) {
    for (const char* attack : {"spec-probe-rop", "spectre-1.1"}) {
      const auto& c = result.cell(attack, "full");
      if (c.leaks == 0) {
        fail(std::string(attack) + " under 'full' never leaked — the "
             "speculative bypass is broken");
      }
    }
  }
  if (has("none") && result.preset_summary("none").total_events() != 0) {
    fail("'none' reported hardening activity");
  }
  if (failures == 0) {
    std::fprintf(stderr,
                 "[crs_matrix] harden check passed: hardening kills the "
                 "classic overflow, the speculative attacks pierce it\n");
  }
  return failures == 0 ? 0 : 1;
}

void print_harden_table(const core::HardenMatrixResult& result) {
  std::printf("%-14s", "attack\\harden");
  for (const auto& p : result.presets) std::printf(" %14s", p.c_str());
  std::printf("\n");
  for (const auto& attack : result.attacks) {
    std::printf("%-14s", attack.c_str());
    for (const auto& preset : result.presets) {
      const auto& c = result.cell(attack, preset);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f/%d", c.leak_rate, c.launches);
      std::printf(" %14s", buf);
    }
    std::printf("\n");
  }
  std::printf("%-14s", "ipc-ovh-%");
  for (std::size_t i = 0; i < result.presets.size(); ++i) {
    std::printf(" %14.2f", result.ipc_overhead_pct[i]);
  }
  std::printf("\n(cells: leak-rate / launches)\n");
}

/// The --harden-sweep mode: same CLI surface, hardening matrix underneath.
int run_harden_sweep(const core::HardenMatrixConfig& config, bool check,
                     const std::string& csv_path,
                     const std::string& metrics_path,
                     const std::string& bench_json_path) {
  const auto t0 = std::chrono::steady_clock::now();
  const core::HardenMatrixResult result = core::run_harden_matrix(config);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  print_harden_table(result);
  if (!csv_path.empty()) {
    core::write_text_file(csv_path, core::harden_matrix_csv(result));
    std::fprintf(stderr, "[crs_matrix] wrote %s\n", csv_path.c_str());
  }
  if (!metrics_path.empty()) {
    core::write_text_file(metrics_path,
                          core::harden_matrix_metrics_csv(result));
    std::fprintf(stderr, "[crs_matrix] wrote %s\n", metrics_path.c_str());
  }
  if (!bench_json_path.empty()) {
    if (std::FILE* f = std::fopen(bench_json_path.c_str(), "a")) {
      std::string presets;
      for (const auto& p : result.presets) {
        if (!presets.empty()) presets += ',';
        presets += p;
      }
      std::fprintf(f,
                   "{\"name\":\"crs_matrix:harden-%s\",\"wall_ms\":%.3f,"
                   "\"items_per_s\":%.3f,\"config\":%s}\n",
                   config.quick ? "quick" : "full", wall_ms,
                   static_cast<double>(result.cells.size()) / (wall_ms / 1e3),
                   core::bench_config_json(presets).c_str());
      std::fclose(f);
    }
  }
  return check ? check_harden_story(result) : 0;
}

void print_table(const core::DefenseMatrixResult& result) {
  std::printf("%-14s", "attack\\preset");
  for (const auto& p : result.presets) std::printf(" %14s", p.c_str());
  std::printf("\n");
  for (const auto& attack : result.attacks) {
    std::printf("%-14s", attack.c_str());
    for (const auto& preset : result.presets) {
      const auto& c = result.cell(attack, preset);
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f/%.2f", c.leak_rate,
                    c.hid_detection);
      std::printf(" %14s", buf);
    }
    std::printf("\n");
  }
  std::printf("%-14s", "ipc-ovh-%");
  for (std::size_t i = 0; i < result.presets.size(); ++i) {
    std::printf(" %14.2f", result.ipc_overhead_pct[i]);
  }
  std::printf("\n(cells: leak-rate / HID-detection)\n");
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
      std::uint64_t u = 0;
      if (args.take("--quick")) {
        config.quick = true;
      } else if (args.take("--check")) {
        check = true;
      } else if (args.take("--harden-sweep")) {
        harden_sweep = true;
      } else if (args.take_value("--presets", value)) {
        config.presets = split(value, ',');
      } else if (args.take_int("--attempts", config.attempts)) {
      } else if (args.take_u64("--seed", config.seed)) {
      } else if (args.take_value("--csv", csv_path)) {
      } else if (args.take_value("--json", json_path)) {
      } else if (args.take_value("--metrics", metrics_path)) {
      } else if (args.take_value("--bench-json", bench_json_path)) {
      } else if (args.take_int("--mined", mined)) {
      } else if (args.take_u64("--mined-seed", mined_seed)) {
      } else if (args.take_u64("--threads", u)) {
        set_thread_override(static_cast<unsigned>(u));
      } else if (args.take_value("--exec", value)) {
        apply_exec_flag(value);
      } else if (args.take("--help")) {
        return help(argv[0]);
      } else {
        args.unknown();
      }
    }

    if (harden_sweep) {
      if (mined > 0) {
        throw Error("--mined applies to the mitigation matrix, not "
                    "--harden-sweep");
      }
      if (!json_path.empty()) {
        throw Error("--json is not supported with --harden-sweep (use "
                    "--csv / --metrics)");
      }
      core::HardenMatrixConfig hcfg;
      hcfg.attempts = config.attempts;
      hcfg.seed = config.seed;
      hcfg.host_scale = config.host_scale;
      hcfg.secret = config.secret;
      hcfg.presets = config.presets;
      hcfg.overhead_repeats = config.overhead_repeats;
      hcfg.quick = config.quick;
      return run_harden_sweep(hcfg, check, csv_path, metrics_path,
                              bench_json_path);
    }

    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<core::AttackSpec> extra =
        mined > 0 ? mined_attacks(config, mined, mined_seed)
                  : std::vector<core::AttackSpec>{};
    const core::DefenseMatrixResult result =
        core::run_defense_matrix(config, extra);
    const double wall_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();

    print_table(result);
    if (!csv_path.empty()) {
      core::write_text_file(csv_path, core::matrix_csv(result));
      std::fprintf(stderr, "[crs_matrix] wrote %s\n", csv_path.c_str());
    }
    if (!json_path.empty()) {
      core::write_text_file(json_path, core::matrix_json(result));
      std::fprintf(stderr, "[crs_matrix] wrote %s\n", json_path.c_str());
    }
    if (!metrics_path.empty()) {
      core::write_text_file(metrics_path, core::matrix_metrics_csv(result));
      std::fprintf(stderr, "[crs_matrix] wrote %s\n", metrics_path.c_str());
    }
    if (!bench_json_path.empty()) {
      if (std::FILE* f = std::fopen(bench_json_path.c_str(), "a")) {
        // The sweep spans presets, so the config's mitigation field records
        // the sweep set rather than a single armed preset.
        std::string presets;
        for (const auto& p : result.presets) {
          if (!presets.empty()) presets += ',';
          presets += p;
        }
        std::fprintf(f,
                     "{\"name\":\"crs_matrix:%s\",\"wall_ms\":%.3f,"
                     "\"items_per_s\":%.3f,\"config\":%s}\n",
                     config.quick ? "quick" : "full", wall_ms,
                     static_cast<double>(result.cells.size()) /
                         (wall_ms / 1e3),
                     core::bench_config_json(presets).c_str());
        std::fclose(f);
      }
    }
    return check ? check_story(result) : 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "crs_matrix: %s\n", e.what());
    return 1;
  }
}
