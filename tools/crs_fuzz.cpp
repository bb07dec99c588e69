// crs_fuzz — differential fuzzer + golden-trace manager for the simulator.
//
//   crs_fuzz [--seed S] [--iters N | --seconds T] [--corpus DIR]
//            [--max-instructions M] [--attack-every K] [--harden-every K]
//            [--threads N]
//            [--exec interp|blocks] [--no-smc] [--no-pivot] [--no-perturb]
//            [--max-repros R]
//   crs_fuzz --update-golden [DIR]     regenerate tests/golden CSVs
//   crs_fuzz --check-golden  [DIR]     diff live scenarios vs checked-in CSVs
//   crs_fuzz --check-trace <file.json> validate a Chrome trace_event JSON
//                                      (schema + B/E span nesting)
//   crs_fuzz --fuzz-serve              differential wire-vs-direct oracle:
//                                      every generated program (and every
//                                      5th iteration a scenario config) runs
//                                      both through core::run_job directly
//                                      and through an in-process campaign
//                                      service over the wire protocol; any
//                                      byte difference is a divergence
//
// Each iteration i derives its own Rng from (seed, i), generates a random
// program, and runs the differential oracle (decode cache on/off, cache
// geometries, speculation windows; every Kth iteration a flush+reload
// attack-leak check instead). On divergence the failing program is
// greedily minimized and written to the corpus directory as a
// self-contained .casm repro that test_fuzz_regressions replays. A final
// serial-vs-thread-pool batch checks campaign-parallelism determinism.
//
// Determinism: the same --seed/--iters produce byte-identical repro files;
// --seconds only changes how many iterations run, not what any given
// iteration does.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "fuzz/differ.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/golden.hpp"
#include "fuzz/minimize.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/cpu.hpp"
#include "support/error.hpp"
#include "support/flags.hpp"
#include "support/parallel.hpp"

#ifndef CRS_FUZZ_DEFAULT_CORPUS
#define CRS_FUZZ_DEFAULT_CORPUS "tests/fuzz_corpus"
#endif
#ifndef CRS_GOLDEN_DIR
#define CRS_GOLDEN_DIR "tests/golden"
#endif

namespace {

using namespace crs;

struct Options {
  std::uint64_t seed = 1;
  std::uint64_t iters = 200;
  double seconds = 0;  // > 0 overrides iters
  std::string corpus = CRS_FUZZ_DEFAULT_CORPUS;
  std::string golden_dir = CRS_GOLDEN_DIR;
  std::uint64_t max_instructions = 2'000'000;
  std::uint64_t attack_every = 13;
  std::uint64_t harden_every = 7;
  unsigned threads = 0;
  int parallel_batch = 8;
  int max_repros = 10;
  bool allow_smc = true;
  bool allow_pivot = true;
  bool allow_perturb = true;
  bool update_golden = false;
  bool check_golden = false;
  bool fuzz_serve = false;
  std::string check_trace;
};

int usage() {
  std::fprintf(
      stderr,
      "usage: crs_fuzz [--seed S] [--iters N | --seconds T] [--corpus DIR]\n"
      "                [--max-instructions M] [--attack-every K]\n"
      "                [--harden-every K] [--threads N]\n"
      "                [--exec interp|blocks] [--parallel-batch B]\n"
      "                [--max-repros R] [--no-smc] [--no-pivot] [--no-perturb]\n"
      "       crs_fuzz --update-golden [DIR]\n"
      "       crs_fuzz --check-golden [DIR]\n"
      "       crs_fuzz --check-trace <file.json>\n"
      "       crs_fuzz --fuzz-serve [--seed S] [--iters N | --seconds T]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  try {
    FlagCursor args(argc, argv);
    std::string value;
    while (args.more()) {
      if (args.take_number("--seed", opt.seed)) {
      } else if (args.take_number("--iters", opt.iters)) {
      } else if (args.take_number("--seconds", opt.seconds)) {
      } else if (args.take_value("--corpus", opt.corpus)) {
      } else if (args.take_number("--max-instructions",
                                  opt.max_instructions)) {
      } else if (args.take_number("--attack-every", opt.attack_every)) {
      } else if (args.take_number("--harden-every", opt.harden_every)) {
      } else if (args.take_number("--threads", opt.threads)) {
      } else if (args.take_number("--parallel-batch", opt.parallel_batch)) {
      } else if (args.take_number("--max-repros", opt.max_repros)) {
      } else if (args.take_value("--check-trace", opt.check_trace)) {
      } else if (args.take_value("--exec", value)) {
        // Sets the default engine for machines the differ does not pin
        // explicitly (golden traces, scenario replay, the attack-leak base).
        sim::apply_exec_flag(value);
      } else if (args.take("--no-smc")) {
        opt.allow_smc = false;
      } else if (args.take("--no-pivot")) {
        opt.allow_pivot = false;
      } else if (args.take("--no-perturb")) {
        opt.allow_perturb = false;
      } else if (args.take("--fuzz-serve")) {
        opt.fuzz_serve = true;
      } else if (const bool update = args.take("--update-golden");
                 update || args.take("--check-golden")) {
        (update ? opt.update_golden : opt.check_golden) = true;
        if (args.more() && !args.more_flags()) {
          opt.golden_dir = args.take_positional();
        }
      } else {
        args.unknown();
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "crs_fuzz: %s\n", e.what());
    return false;
  }
  return true;
}

fuzz::GeneratorOptions generator_options(const Options& opt,
                                         std::uint64_t iter) {
  fuzz::GeneratorOptions g;
  // Alternate equivalence classes: even iterations stay timing-blind so the
  // arch-only configs (cache geometry, spec window) participate; odd ones
  // allow rdcycle and exercise exact configs with timing-dependent code.
  g.allow_rdcycle = (iter % 2) == 1;
  g.allow_smc = opt.allow_smc && (iter % 3) == 0;
  g.allow_pivot = opt.allow_pivot;
  g.allow_perturb = opt.allow_perturb;
  return g;
}

/// Repro file: header comments carry everything the replayer needs.
std::string repro_text(const Options& opt, std::uint64_t iter,
                       const fuzz::Divergence& div,
                       const fuzz::FuzzProgram& minimized) {
  std::string s;
  s += "; crs-fuzz repro (auto-minimized)\n";
  s += "; seed: " + std::to_string(opt.seed) + "\n";
  s += "; iter: " + std::to_string(iter) + "\n";
  s += "; kind: " + div.kind + "\n";
  s += "; configs: " + div.config_a +
       (div.config_b.empty() ? "" : " vs " + div.config_b) + "\n";
  s += "; detail: " + div.detail + "\n";
  s += "; smc: " + std::to_string(minimized.uses_smc ? 1 : 0) + "\n";
  s += "; rdcycle: " + std::to_string(minimized.uses_rdcycle ? 1 : 0) + "\n";
  s += minimized.source();
  return s;
}

int run_golden(const Options& opt) {
  namespace fs = std::filesystem;
  int failures = 0;
  for (const auto& name : fuzz::golden_scenario_names()) {
    const auto path = opt.golden_dir + "/" + name + ".csv";
    const auto live = fuzz::golden_csv(name);
    if (opt.update_golden) {
      fs::create_directories(opt.golden_dir);
      core::write_text_file(path, live);
      std::printf("crs_fuzz: wrote %s (%zu bytes)\n", path.c_str(),
                  live.size());
      continue;
    }
    std::string golden;
    try {
      golden = core::read_text_file(path);
    } catch (const Error& e) {
      std::fprintf(stderr, "crs_fuzz: %s (run --update-golden first?)\n",
                   e.what());
      ++failures;
      continue;
    }
    const auto diff = fuzz::diff_csv(name, golden, live);
    if (diff.empty()) {
      std::printf("crs_fuzz: golden '%s' OK\n", name.c_str());
    } else {
      std::fputs(diff.c_str(), stderr);
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int run_check_trace(const std::string& path) {
  const auto json = core::read_text_file(path);
  const auto diag = obs::validate_chrome_trace(json);
  if (diag.empty()) {
    std::printf("crs_fuzz: trace %s OK (%zu bytes)\n", path.c_str(),
                json.size());
    return 0;
  }
  std::fprintf(stderr, "crs_fuzz: trace %s INVALID: %s\n", path.c_str(),
               diag.c_str());
  return 1;
}

int run_fuzz(const Options& opt) {
  namespace fs = std::filesystem;
  if (opt.threads != 0) set_thread_override(opt.threads);

  fuzz::RunLimits limits;
  limits.max_instructions = opt.max_instructions;

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  int divergences = 0;
  int repros_written = 0;
  std::uint64_t iter = 0;
  std::uint64_t programs_checked = 0;
  std::uint64_t attacks_checked = 0;
  std::uint64_t hardened_checked = 0;

  for (;; ++iter) {
    if (opt.seconds > 0) {
      if (elapsed() >= opt.seconds) break;
    } else if (iter >= opt.iters) {
      break;
    }

    Rng rng(derive_seed(opt.seed, iter));
    if (opt.attack_every > 0 && iter % opt.attack_every == opt.attack_every - 1) {
      ++attacks_checked;
      if (const auto div = fuzz::check_attack_leak(rng, limits)) {
        ++divergences;
        std::fprintf(stderr,
                     "crs_fuzz: DIVERGENCE (iter %llu, %s): %s vs %s: %s\n",
                     static_cast<unsigned long long>(iter), div->kind.c_str(),
                     div->config_a.c_str(), div->config_b.c_str(),
                     div->detail.c_str());
        // Attack binaries are parameter-derived, not line-mutable: record
        // the failing iteration without a .casm repro.
      }
      continue;
    }

    const auto gopt = generator_options(opt, iter);
    const auto program = fuzz::generate_program(rng, gopt);
    ++programs_checked;
    auto div = fuzz::check_program(program, limits);
    if (!div && opt.harden_every > 0 &&
        iter % opt.harden_every == opt.harden_every - 1) {
      // The same program again under a seeded hardened (ASLR + guarded
      // heap) kernel: the relocated layout must be engine-invariant.
      ++hardened_checked;
      div = fuzz::check_hardened(program.source(), program.uses_smc,
                                 program.uses_rdcycle, rng.next_u64(), limits);
    }
    if (!div) {
      if (iter % 50 == 49) {
        std::printf("crs_fuzz: %llu iterations, %d divergence(s), %.1fs\n",
                    static_cast<unsigned long long>(iter + 1), divergences,
                    elapsed());
        std::fflush(stdout);
      }
      continue;
    }

    ++divergences;
    std::fprintf(stderr, "crs_fuzz: DIVERGENCE (iter %llu, %s): %s vs %s: %s\n",
                 static_cast<unsigned long long>(iter), div->kind.c_str(),
                 div->config_a.c_str(), div->config_b.c_str(),
                 div->detail.c_str());
    if (repros_written >= opt.max_repros) continue;

    // Minimize: keep any candidate that still diverges (in any way).
    fuzz::MinimizeStats mstats;
    const auto minimized = fuzz::minimize(
        program,
        [&](const fuzz::FuzzProgram& cand) {
          try {
            return fuzz::check_program(cand, limits).has_value();
          } catch (const Error&) {
            return false;  // candidate no longer assembles
          }
        },
        /*max_oracle_calls=*/600, &mstats);

    fs::create_directories(opt.corpus);
    const auto path = opt.corpus + "/repro_s" + std::to_string(opt.seed) +
                      "_i" + std::to_string(iter) + ".casm";
    const auto final_div = fuzz::check_program(minimized, limits);
    core::write_text_file(
        path, repro_text(opt, iter, final_div.value_or(*div), minimized));
    ++repros_written;
    std::fprintf(stderr,
                 "crs_fuzz: minimized %zu -> %zu lines (%d oracle calls), "
                 "wrote %s\n",
                 program.lines.size(), minimized.lines.size(),
                 mstats.oracle_calls, path.c_str());
  }

  // Campaign-parallelism oracle: serial vs pool over a fresh batch.
  if (opt.parallel_batch > 0) {
    fuzz::GeneratorOptions gopt;
    gopt.allow_smc = opt.allow_smc;
    gopt.allow_pivot = opt.allow_pivot;
    gopt.allow_perturb = opt.allow_perturb;
    if (const auto div = fuzz::check_parallel_batch(
            derive_seed(opt.seed, 0xBA7C4), opt.parallel_batch,
            opt.threads, gopt, limits)) {
      ++divergences;
      std::fprintf(stderr, "crs_fuzz: DIVERGENCE (parallel): %s vs %s: %s\n",
                   div->config_a.c_str(), div->config_b.c_str(),
                   div->detail.c_str());
    }
  }

  std::printf(
      "crs_fuzz: done — %llu programs (%llu also hardened) + %llu attack "
      "configs checked in %.1fs, %d divergence(s), %d repro(s) written\n",
      static_cast<unsigned long long>(programs_checked),
      static_cast<unsigned long long>(hardened_checked),
      static_cast<unsigned long long>(attacks_checked), elapsed(), divergences,
      repros_written);
  return divergences == 0 ? 0 : 1;
}

/// Differential wire-vs-direct oracle (the serve twin of check_program).
/// The served path must be a pure transport: for any job the RESULT payload
/// off the wire equals core::run_job's payload byte for byte. Reuses the
/// fuzz generator so the program population matches the main oracle's.
int run_fuzz_serve(const Options& opt) {
  if (opt.threads != 0) set_thread_override(opt.threads);

  serve::ServeConfig scfg;
  scfg.shards = 2;
  scfg.queue_capacity = 16;
  serve::Server server(scfg);
  server.start();
  serve::Client client = serve::Client::connect_tcp(server.port());

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  int divergences = 0;
  std::uint64_t iter = 0;
  for (;; ++iter) {
    if (opt.seconds > 0) {
      if (elapsed() >= opt.seconds) break;
    } else if (iter >= opt.iters) {
      break;
    }

    Rng rng(derive_seed(opt.seed, iter));
    core::JobSpec spec;
    spec.id = iter + 1;
    if (iter % 5 == 4) {
      // Scenario jobs keep the session-cache path honest, not just the
      // machine-pool path the program jobs exercise.
      spec.kind = core::JobKind::kScenario;
      spec.scenario.config.rop_injected = false;
      spec.scenario.config.host_scale = 500 + rng.next_below(8);
      spec.scenario.config.secret = (iter % 10 == 9) ? "FZ" : "FUZZSRV";
      spec.scenario.config.seed = 1 + rng.next_below(1000);
      spec.scenario.attempts = 1 + static_cast<int>(rng.next_below(3));
    } else {
      const auto program = fuzz::generate_program(
          rng, generator_options(opt, iter));
      spec.kind = core::JobKind::kProgram;
      spec.program.source = program.source();
      spec.program.writable_text = program.uses_smc;
      spec.program.max_instructions = opt.max_instructions;
    }

    const std::string direct = core::run_job(spec).payload;
    // Round-trip the spec text itself: the server parses what the client
    // serialized, so any canonicalization drift shows up here too.
    const serve::Client::JobResult served = client.run(spec);
    if (!served.accepted || served.status != "ok" ||
        served.payload != direct) {
      ++divergences;
      std::fprintf(stderr,
                   "crs_fuzz: SERVE DIVERGENCE (iter %llu, %s): %s\n",
                   static_cast<unsigned long long>(iter),
                   core::job_kind_name(spec.kind).c_str(),
                   !served.accepted
                       ? ("rejected: " + served.reject_reason).c_str()
                       : (served.status != "ok"
                              ? ("status=" + served.status).c_str()
                              : "payload bytes differ"));
    }
    if (iter % 50 == 49) {
      std::printf("crs_fuzz: serve %llu iterations, %d divergence(s), %.1fs\n",
                  static_cast<unsigned long long>(iter + 1), divergences,
                  elapsed());
      std::fflush(stdout);
    }
  }

  server.shutdown(true);
  const serve::ServeStats stats = server.stats();
  std::printf(
      "crs_fuzz: serve done — %llu jobs wire-vs-direct in %.1fs, "
      "%d divergence(s) (server: %llu accepted, %llu completed)\n",
      static_cast<unsigned long long>(iter), elapsed(), divergences,
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.completed));
  return divergences == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) return usage();
  try {
    if (opt.update_golden || opt.check_golden) return run_golden(opt);
    if (!opt.check_trace.empty()) return run_check_trace(opt.check_trace);
    if (opt.fuzz_serve) return run_fuzz_serve(opt);
    return run_fuzz(opt);
  } catch (const Error& e) {
    std::fprintf(stderr, "crs_fuzz: %s\n", e.what());
    return 1;
  }
}
