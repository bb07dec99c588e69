// Corpus-scale mining driver: per-binary pipeline (assemble -> classify ->
// validate -> class-upgrade via the classic ROP pool -> synthesize +
// self-check), fanned out on the thread pool.
//
// Determinism contract (tested in tests/test_mine.cpp): generated sources
// are pure functions of derive_seed(seed, index); binaries are mined
// share-nothing and folded by index, so any CRS_THREADS value gives
// byte-identical reports.
#include <exception>
#include <utility>

#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "fuzz/generator.hpp"
#include "mine/emul.hpp"
#include "mine/mine.hpp"
#include "obs/trace.hpp"
#include "rop/gadget.hpp"
#include "sim/kernel.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace crs::mine {
namespace {

/// Runs the synthesized replay program against a planted secret; only a
/// byte-exact recovery earns scenario eligibility.
bool self_check(const std::string& attack_source, const MineOptions& opt) {
  const std::string secret(detail::kValidationSecret);
  const std::string full = wrap_attack_standalone(attack_source, secret) +
                           "\n" + casm::runtime_library();
  sim::Program program;
  try {
    program = casm::assemble(
        full, {.name = "mine-replay", .link_base = opt.link_base});
  } catch (const std::exception&) {
    return false;
  }
  sim::Machine machine;
  sim::Kernel kernel(machine, sim::KernelConfig{});
  kernel.register_binary("/bin/mined_replay", program);
  kernel.start("/bin/mined_replay");
  kernel.run(8'000'000);
  return kernel.output_string() == secret;
}

}  // namespace

BinaryReport mine_source(const std::string& name, const std::string& source,
                         const MineOptions& opt) {
  BinaryReport rep;
  rep.name = name;

  casm::Listing listing;
  try {
    listing = casm::assemble_listing(
        source + "\n" + casm::runtime_library(),
        {.name = name, .link_base = opt.link_base});
  } catch (const std::exception& e) {
    rep.error = e.what();
    return rep;
  }
  const sim::Program& program = listing.program;

  const std::vector<WindowCandidate> candidates =
      classify_program(program, opt);
  rep.candidates = candidates.size();

  // Classic code-reuse recon: a post-call window is CR-Spectre-drivable
  // (kCrSpectre) when the pool can pop the attacker register and reach a
  // syscall — the paper's injection prerequisites.
  const rop::GadgetScanner scanner;
  const std::vector<rop::Gadget> pool = scanner.scan(program);
  const std::uint32_t pops = rop::pop_register_mask(pool);
  const bool has_syscall = rop::find_syscall(pool) != nullptr;

  for (const WindowCandidate& cand : candidates) {
    MinedGadget g;
    g.window = cand;
    if (opt.validate) {
      const detail::ValidateOutcome vo =
          detail::validate_window(source, listing.text_lines, cand, opt);
      if (vo.validation == Validation::kNone) {
        ++rep.rejected;
        continue;
      }
      g.validation = vo.validation;
      g.leaked_byte = vo.leaked_byte;
    }
    if (cand.trigger == TriggerKind::kCondBranch) {
      g.cls = GadgetClass::kPht;
    } else {
      const bool drivable = has_syscall && cand.attacker_reg >= 0 &&
                            ((pops >> cand.attacker_reg) & 1u) != 0;
      g.cls = drivable ? GadgetClass::kCrSpectre : GadgetClass::kRsb;
    }
    std::string attack = synthesize_attack_source(program, cand, opt);
    if (!attack.empty() && self_check(attack, opt)) {
      g.scenario_eligible = true;
      g.attack_source = std::move(attack);
    }
    rep.gadgets.push_back(std::move(g));
  }
  return rep;
}

CorpusReport mine_corpus(const CorpusOptions& options) {
  // Generated sources are derived up front (cheap, and trivially
  // deterministic); mining — the expensive part — fans out below.
  std::vector<std::pair<std::string, std::string>> items;
  items.reserve(options.generated + options.sources.size());
  for (std::size_t i = 0; i < options.generated; ++i) {
    Rng rng(derive_seed(options.seed, i));
    fuzz::GeneratorOptions gopt;
    gopt.gadget_bias = options.gadget_bias;
    const fuzz::FuzzProgram fp = fuzz::generate_program(rng, gopt);
    items.emplace_back("gen-" + std::to_string(options.seed) + "-" +
                           std::to_string(i),
                       fp.source());
  }
  for (const auto& src : options.sources) items.push_back(src);

  ThreadPool pool;
  std::vector<BinaryReport> reports =
      parallel_map<BinaryReport>(pool, items.size(), [&](std::size_t i) {
        return mine_source(items[i].first, items[i].second, options.mine);
      });

  CorpusReport out;
  out.binaries = std::move(reports);
  for (const BinaryReport& rep : out.binaries) {
    out.candidates += rep.candidates;
    out.rejected += rep.rejected;
    out.gadgets += rep.gadgets.size();
    for (const MinedGadget& g : rep.gadgets) {
      if (g.validation == Validation::kLeak) ++out.leaks;
      if (g.validation == Validation::kPerturb) ++out.perturbs;
      if (g.scenario_eligible) ++out.scenarios;
    }
  }
  return out;
}

std::string corpus_csv(const CorpusReport& report) {
  std::string out =
      "binary,class,trigger,trigger_addr,window,window_addr,window_len,"
      "attacker_reg,load_addr,xmit_addr,load_width,validation,leaked_byte,"
      "scenario\n";
  for (const BinaryReport& rep : report.binaries) {
    for (const MinedGadget& g : rep.gadgets) {
      const WindowCandidate& w = g.window;
      out += rep.name + ',' + gadget_class_name(g.cls) + ',' +
             trigger_kind_name(w.trigger) + ',' + hex(w.trigger_addr) + ',' +
             (w.trigger == TriggerKind::kPostCall
                  ? "post"
                  : (w.window_taken ? "taken" : "fall")) +
             ',' + hex(w.window_addr) + ',' + std::to_string(w.window_len) +
             ',' + std::to_string(w.attacker_reg) + ',' + hex(w.load_addr) +
             ',' + hex(w.xmit_addr) + ',' + std::to_string(w.load_width) +
             ',' + validation_name(g.validation) + ',' +
             std::to_string(g.leaked_byte) + ',' +
             (g.scenario_eligible ? "yes" : "no") + '\n';
    }
  }
  return out;
}

std::string corpus_json(const CorpusReport& report) {
  std::string out = "{\n  \"binaries\": [\n";
  for (std::size_t i = 0; i < report.binaries.size(); ++i) {
    const BinaryReport& rep = report.binaries[i];
    out += "    {\"name\": \"" + obs::json_escape(rep.name) + "\", ";
    out += "\"candidates\": " + std::to_string(rep.candidates) + ", ";
    out += "\"rejected\": " + std::to_string(rep.rejected) + ", ";
    if (!rep.error.empty()) {
      out += "\"error\": \"" + obs::json_escape(rep.error) + "\", ";
    }
    out += "\"gadgets\": [";
    for (std::size_t j = 0; j < rep.gadgets.size(); ++j) {
      const MinedGadget& g = rep.gadgets[j];
      const WindowCandidate& w = g.window;
      if (j > 0) out += ", ";
      out += "{\"class\": \"" + gadget_class_name(g.cls) + "\", ";
      out += "\"trigger\": \"" + trigger_kind_name(w.trigger) + "\", ";
      out += "\"trigger_addr\": \"" + hex(w.trigger_addr) + "\", ";
      out += "\"window_addr\": \"" + hex(w.window_addr) + "\", ";
      out += "\"window_len\": " + std::to_string(w.window_len) + ", ";
      out += "\"attacker_reg\": " + std::to_string(w.attacker_reg) + ", ";
      out += "\"validation\": \"" + validation_name(g.validation) + "\", ";
      out += "\"leaked_byte\": " + std::to_string(g.leaked_byte) + ", ";
      out += "\"scenario\": ";
      out += g.scenario_eligible ? "true" : "false";
      out += "}";
    }
    out += "]}";
    out += i + 1 < report.binaries.size() ? ",\n" : "\n";
  }
  out += "  ],\n  \"totals\": {";
  out += "\"candidates\": " + std::to_string(report.candidates) + ", ";
  out += "\"rejected\": " + std::to_string(report.rejected) + ", ";
  out += "\"gadgets\": " + std::to_string(report.gadgets) + ", ";
  out += "\"leaks\": " + std::to_string(report.leaks) + ", ";
  out += "\"perturbs\": " + std::to_string(report.perturbs) + ", ";
  out += "\"scenarios\": " + std::to_string(report.scenarios) + "}\n}\n";
  return out;
}

core::ScenarioConfig mined_scenario(const MinedGadget& g,
                                    const std::string& secret, bool injected) {
  core::ScenarioConfig cfg;
  cfg.secret = secret;
  cfg.rop_injected = injected;
  cfg.variant = g.cls == GadgetClass::kPht ? attack::SpectreVariant::kPht
                                           : attack::SpectreVariant::kRsb;
  cfg.mined_attack_source =
      injected ? g.attack_source : wrap_attack_standalone(g.attack_source, secret);
  return cfg;
}

}  // namespace crs::mine
