// gadget_hunter — gadget discovery CLI: the offline half of the ROP attack,
// plus corpus-scale speculation-aware mining (src/mine).
//
// Single-binary mode (classic ROP catalogue):
//   gadget_hunter <prog.s>            print the full gadget catalogue
//   gadget_hunter --plan <prog.s>     additionally plan the execve chain
//                                     (frame recon + payload hexdump)
//   gadget_hunter --metrics <out.csv> also dump scan metrics (gadget count,
//                                     chain feasibility, payload size) as CSV
//
// Corpus mining mode (any of --gen/--corpus/--mine-*/--emit-scenarios):
//   gadget_hunter --gen N             mine N fuzz-generated programs
//                 [--seed S]          corpus seed (default 2026)
//                 [--gadget-bias P]   % chance per block of a Spectre-shaped
//                                     snippet (default 60)
//                 [--corpus DIR]      also mine every .casm file in DIR
//                 [--threads N]       pool width (results identical for any)
//                 [--max-window W]    speculation-window walk bound
//                 [--no-validate]     static classification only
//                 [--mine-csv F]      write the mined-gadget table as CSV
//                 [--mine-json F]     write the full report as JSON
//                 [--emit-scenarios DIR]  write a .casm replay + .job spec
//                                     per scenario-eligible gadget
//   gadget_hunter --update-golden [DIR]   regenerate tests/golden mined set
//   gadget_hunter --check-golden  [DIR]   re-mine the checked-in corpus and
//                                         diff the CSV byte-for-byte
//
// `prog.s` is assembled with the runtime library, like crsim does; the
// scanner then decodes its executable pages the way the paper's authors
// walked the victim in GDB. The golden corpus pins the classifier: the
// sources under <golden>/mine_corpus/ are checked in, so --check-golden
// exercises classify + validate + synthesize without depending on the fuzz
// generator's drift.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "core/job.hpp"
#include "core/report.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/golden.hpp"
#include "mine/mine.hpp"
#include "obs/metrics.hpp"
#include "rop/plan.hpp"
#include "support/error.hpp"
#include "support/flags.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"

#ifndef CRS_GOLDEN_DIR
#define CRS_GOLDEN_DIR "tests/golden"
#endif

namespace {

using namespace crs;

// The golden corpus is generated once by --update-golden and then checked
// in; these only matter when regenerating it.
constexpr std::uint64_t kGoldenSeed = 2026;
constexpr std::size_t kGoldenGenerated = 6;

void print_usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: gadget_hunter [--plan] [--metrics <out.csv>] <prog.s>\n"
      "       gadget_hunter [--gen N] [--seed S] [--gadget-bias P]\n"
      "                     [--corpus DIR] [--threads N] [--max-window W]\n"
      "                     [--no-validate] [--mine-csv F] [--mine-json F]\n"
      "                     [--emit-scenarios DIR]\n"
      "       gadget_hunter --update-golden [DIR]\n"
      "       gadget_hunter --check-golden [DIR]\n"
      "       gadget_hunter --help\n");
}

int usage() {
  print_usage(stderr);
  return 2;
}

/// `--help` is a success, not a usage error: print to stdout, exit 0.
int help() {
  print_usage(stdout);
  return 0;
}

/// Every .casm file in `dir` as a (bare filename, source) pair, sorted by
/// name so the mined report is independent of directory iteration order.
std::vector<std::pair<std::string, std::string>> load_corpus_dir(
    const std::string& dir) {
  namespace fs = std::filesystem;
  if (!fs::is_directory(dir)) {
    throw Error("corpus directory '" + dir + "' does not exist");
  }
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const auto path = entry.path();
    if (path.extension() != ".casm" && path.extension() != ".s") continue;
    names.push_back(path.filename().string());
  }
  std::sort(names.begin(), names.end());
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(names.size());
  for (const auto& name : names) {
    out.emplace_back(name, core::read_text_file(dir + "/" + name));
  }
  return out;
}

void print_report(const mine::CorpusReport& report) {
  for (const auto& b : report.binaries) {
    if (!b.error.empty()) {
      std::printf("  %-24s ERROR: %s\n", b.name.c_str(), b.error.c_str());
      continue;
    }
    std::printf("  %-24s %2zu candidate(s), %2zu rejected, %2zu gadget(s)\n",
                b.name.c_str(), b.candidates, b.rejected, b.gadgets.size());
    for (const auto& g : b.gadgets) {
      std::printf("    %-11s %-11s trigger %s window %s+%d  [%s%s]\n",
                  mine::gadget_class_name(g.cls).c_str(),
                  mine::trigger_kind_name(g.window.trigger).c_str(),
                  hex(g.window.trigger_addr).c_str(),
                  hex(g.window.window_addr).c_str(), g.window.window_len,
                  mine::validation_name(g.validation).c_str(),
                  g.scenario_eligible ? ", scenario" : "");
    }
  }
  std::printf(
      "mined %zu gadget(s) from %zu binarie(s): %zu candidate(s), "
      "%zu rejected, %zu leak(s), %zu perturb(s), %zu scenario-eligible\n",
      report.gadgets, report.binaries.size(), report.candidates,
      report.rejected, report.leaks, report.perturbs, report.scenarios);
}

/// Writes one .casm standalone replay and one .job scenario spec per
/// scenario-eligible gadget.
int emit_scenarios(const mine::CorpusReport& report, const std::string& dir) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  int emitted = 0;
  for (const auto& b : report.binaries) {
    for (const auto& g : b.gadgets) {
      if (!g.scenario_eligible) continue;
      const core::ScenarioConfig sc =
          mine::mined_scenario(g, "CRSPECTRE-SECRET", /*injected=*/false);
      const std::string stem = dir + "/mined-" + mine::gadget_class_name(g.cls) +
                               "-" + std::to_string(emitted);
      core::write_text_file(stem + ".casm", sc.mined_attack_source);
      core::JobSpec spec;
      spec.kind = core::JobKind::kScenario;
      spec.id = static_cast<std::uint64_t>(emitted) + 1;
      spec.scenario.config = sc;
      spec.scenario.attempts = 1;
      core::write_text_file(stem + ".job", core::serialize_job(spec));
      ++emitted;
    }
  }
  std::printf("wrote %d scenario(s) to %s\n", emitted, dir.c_str());
  return emitted;
}

struct MineArgs {
  mine::CorpusOptions corpus;
  std::string corpus_dir;
  std::string mine_csv, mine_json, scenario_dir;
};

int run_mine(const MineArgs& margs) {
  mine::CorpusOptions opt = margs.corpus;
  if (!margs.corpus_dir.empty()) {
    auto extra = load_corpus_dir(margs.corpus_dir);
    opt.sources.insert(opt.sources.end(), extra.begin(), extra.end());
  }
  if (opt.generated == 0 && opt.sources.empty()) {
    std::fprintf(stderr, "gadget_hunter: nothing to mine (use --gen/--corpus)\n");
    return 2;
  }
  const mine::CorpusReport report = mine::mine_corpus(opt);
  print_report(report);
  if (!margs.mine_csv.empty()) {
    core::write_text_file(margs.mine_csv, mine::corpus_csv(report));
    std::printf("wrote %s\n", margs.mine_csv.c_str());
  }
  if (!margs.mine_json.empty()) {
    core::write_text_file(margs.mine_json, mine::corpus_json(report));
    std::printf("wrote %s\n", margs.mine_json.c_str());
  }
  if (!margs.scenario_dir.empty()) emit_scenarios(report, margs.scenario_dir);
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("mine.candidates").add(report.candidates);
  reg.counter("mine.gadgets").add(report.gadgets);
  reg.counter("mine.scenarios").add(report.scenarios);
  return 0;
}

/// The golden mined set: checked-in corpus sources + the expected mined CSV.
/// Update regenerates both; check re-mines the checked-in sources and
/// requires a byte-identical CSV.
int run_golden(const std::string& dir, bool update) {
  namespace fs = std::filesystem;
  const std::string corpus_dir = dir + "/mine_corpus";
  const std::string csv_path = dir + "/mine.csv";

  mine::CorpusOptions opt;
  if (update) {
    fs::create_directories(corpus_dir);
    fuzz::GeneratorOptions gopt;
    gopt.gadget_bias = 60;
    for (std::size_t i = 0; i < kGoldenGenerated; ++i) {
      Rng rng(derive_seed(kGoldenSeed, i));
      const fuzz::FuzzProgram prog = fuzz::generate_program(rng, gopt);
      const std::string name = "mine_g" + std::to_string(i) + ".casm";
      core::write_text_file(corpus_dir + "/" + name, prog.source());
      opt.sources.emplace_back(name, prog.source());
    }
  } else {
    opt.sources = load_corpus_dir(corpus_dir);
    if (opt.sources.empty()) {
      std::fprintf(stderr,
                   "gadget_hunter: no golden corpus in %s (run "
                   "--update-golden first?)\n",
                   corpus_dir.c_str());
      return 1;
    }
  }

  const mine::CorpusReport report = mine::mine_corpus(opt);
  const std::string live = mine::corpus_csv(report);
  if (update) {
    core::write_text_file(csv_path, live);
    print_report(report);
    std::printf("gadget_hunter: wrote %s (%zu bytes)\n", csv_path.c_str(),
                live.size());
    return 0;
  }
  const std::string golden = core::read_text_file(csv_path);
  const std::string diff = fuzz::diff_csv("mine", golden, live);
  if (diff.empty()) {
    std::printf("gadget_hunter: golden 'mine' OK (%zu gadget(s))\n",
                report.gadgets);
    return 0;
  }
  std::fputs(diff.c_str(), stderr);
  return 1;
}

int run_single(const std::string& path, bool plan_chain,
               const std::string& metrics_path) {
  const sim::Program program = casm::assemble(
      core::read_text_file(path) + casm::runtime_library(),
      {.name = path, .link_base = 0x10000});

  const auto gadgets = rop::GadgetScanner().scan(program);
  std::printf("%zu gadgets in executable pages of %s:\n", gadgets.size(),
              path.c_str());
  std::fputs(rop::describe_catalog(gadgets).c_str(), stdout);

  rop::ChainBuilder builder(gadgets);
  std::printf("\nexecve chain constructible: %s\n",
              builder.can_build_execve() ? "yes" : "NO");

  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("rop.gadgets_found").add(gadgets.size());
  reg.gauge("rop.chain_constructible")
      .set(builder.can_build_execve() ? 1.0 : 0.0);

  if (plan_chain && builder.can_build_execve()) {
    rop::ReconSpec spec;
    spec.path = path;
    const auto plan = rop::plan_injection(program, spec, "/bin/cr_spectre");
    obs::MetricsRegistry::instance()
        .counter("rop.payload_bytes")
        .add(plan.payload.bytes.size());
    std::printf("frame: buffer %s, return slot %s, filler %llu bytes\n",
                hex(plan.frame.buffer_address).c_str(),
                hex(plan.frame.return_slot).c_str(),
                static_cast<unsigned long long>(plan.frame.filler_length));
    std::printf("payload (%zu bytes):\n", plan.payload.bytes.size());
    for (std::size_t i = 0; i < plan.payload.bytes.size(); ++i) {
      if (i % 16 == 0) std::printf("  %04zx:", i);
      std::printf(" %02x", plan.payload.bytes[i]);
      if (i % 16 == 15) std::printf("\n");
    }
    if (plan.payload.bytes.size() % 16 != 0) std::printf("\n");
  }
  if (!metrics_path.empty()) {
    crs::core::write_text_file(metrics_path,
                               obs::MetricsRegistry::instance().csv());
    std::printf("wrote %zu metrics to %s\n",
                obs::MetricsRegistry::instance().size(), metrics_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    bool plan_chain = false;
    bool mining = false;
    bool no_validate = false;
    bool check_golden = false;
    bool update_golden = false;
    std::string golden_dir = CRS_GOLDEN_DIR;
    std::string metrics_path;
    MineArgs margs;

    FlagCursor args(argc, argv);
    unsigned threads = 0;
    while (args.more_flags()) {
      if (args.take("--plan")) {
        plan_chain = true;
      } else if (args.take_value("--metrics", metrics_path)) {
      } else if (args.take_number("--gen", margs.corpus.generated)) {
        mining = true;
      } else if (args.take_number("--seed", margs.corpus.seed)) {
        mining = true;
      } else if (args.take_number("--gadget-bias", margs.corpus.gadget_bias)) {
        mining = true;
      } else if (args.take_value("--corpus", margs.corpus_dir)) {
        mining = true;
      } else if (args.take_number("--threads", threads)) {
        set_thread_override(threads);
      } else if (args.take_number("--max-window",
                                  margs.corpus.mine.max_window)) {
        mining = true;
      } else if (args.take("--no-validate")) {
        no_validate = true;
        mining = true;
      } else if (args.take_value("--mine-csv", margs.mine_csv)) {
        mining = true;
      } else if (args.take_value("--mine-json", margs.mine_json)) {
        mining = true;
      } else if (args.take_value("--emit-scenarios", margs.scenario_dir)) {
        mining = true;
      } else if (args.take("--check-golden")) {
        check_golden = true;
      } else if (args.take("--update-golden")) {
        update_golden = true;
      } else if (args.take("--help")) {
        return help();
      } else {
        args.unknown();
      }
    }
    margs.corpus.mine.validate = !no_validate;

    if (check_golden || update_golden) {
      if (args.more()) golden_dir = args.take_positional();
      return run_golden(golden_dir, update_golden);
    }
    if (mining) {
      if (args.more()) {
        throw Error("unexpected positional '" + args.current() +
                    "' in mining mode");
      }
      return run_mine(margs);
    }
    if (!args.more()) {
      std::fprintf(stderr, "missing input file\n");
      return 2;
    }
    return run_single(args.take_positional(), plan_chain, metrics_path);
  } catch (const Error& e) {
    std::fprintf(stderr, "gadget_hunter: %s\n", e.what());
    return 1;
  }
}
