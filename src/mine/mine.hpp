// Speculation-aware gadget mining (Teapot-style, PAPERS.md).
//
// The classic `rop/` scanner harvests ret-terminated chains; it knows
// nothing about *speculation*. This library finds the gadgets the paper's
// dynamic attack actually needs: windows of straight-line code that, when
// reached transiently (a mistrained conditional branch or a mispredicted
// return), carry an attacker-controlled value into a transient load whose
// result feeds a second, cache-visible load — a Spectre transmitter.
//
// Pipeline per binary:
//   1. classify_program — static pass over the decoded image (DecodeCache on
//      a scratch Memory, so DEP and fence hints behave exactly as the CPU
//      front end sees them). A cond-taint pre-pass marks branches whose
//      condition an attacker register reaches; candidate windows are both
//      sides of those branches (Spectre-PHT) and every post-call
//      continuation (Spectre-RSB). A bounded taint walk down each window
//      looks for attacker-reg -> transient load -> dependent load within the
//      speculation window.
//   2. detail::validate_window — dynamic ground truth. The original source,
//      with a label planted on the trigger's line (casm::assemble_listing
//      names it), is re-assembled behind a generated driver that mistrains the
//      predictor (PHT update / RSB push), plants a secret, points the
//      attacker register at it, and fires the trigger once; the candidate
//      survives only if the secret-dependent probe line is actually
//      cache-resident afterwards (kLeak when the value is recoverable,
//      kPerturb when the transient window observably disturbed the cache
//      without being byte-recoverable).
//   3. synthesize_attack_source — for eligible gadgets, emit a standalone
//      flush+reload replay program around the *verbatim mined body* (movi
//      address immediates re-anchored onto embedded copies of the victim
//      image). The synthesized program is self-checked by running it against
//      a planted secret before it is declared scenario-eligible.
//
// mine_source assembles each binary once and runs the whole pipeline on
// that assembly; mine_corpus fans binaries out on the thread pool and folds
// reports by index, so the mined set is byte-identical for any CRS_THREADS.
// Nothing is cached: every tool mines a corpus once per process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "sim/program.hpp"

namespace crs::mine {

/// How the transient window opens.
enum class TriggerKind : std::uint8_t {
  kCondBranch,  ///< mistrained conditional branch (Spectre-PHT)
  kPostCall,    ///< return misprediction into the post-call slot (RSB)
};

/// Final gadget label. A post-call window upgrades from kRsb to kCrSpectre
/// when the binary's classic ROP pool can also steer the attacker register
/// and reach a syscall — i.e. the window is drivable by the paper's
/// code-reuse injection, not just by an in-process mistrain.
enum class GadgetClass : std::uint8_t { kPht, kRsb, kCrSpectre };

enum class Validation : std::uint8_t {
  kNone,     ///< did not validate dynamically (never appears in mined sets)
  kLeak,     ///< secret byte recoverable from the probe-line residency
  kPerturb,  ///< probe set observably disturbed, value not discriminable
};

std::string trigger_kind_name(TriggerKind k);
std::string gadget_class_name(GadgetClass c);
std::string validation_name(Validation v);

struct MineOptions {
  /// Registers modelled as attacker-controlled at every basic-block entry
  /// (the argv-derived data registers of generated programs).
  std::vector<int> attacker_regs = {1, 2, 3};
  /// Maximum transient window length walked, in instructions. Kept under
  /// the CPU's max_spec_window (64) so a classified transmit can actually
  /// execute before the squash.
  int max_window = 40;
  std::uint64_t link_base = 0x10000;
  /// Branches carrying a fence-pass speculation-barrier hint never open a
  /// window (mirrors CpuConfig::honor_fence_hints).
  bool honor_fence_hints = true;
  /// Dynamically validate candidates; mined sets keep only survivors.
  bool validate = true;
  /// PHT mistraining repetitions before the trigger fires.
  int train_iterations = 4;
  /// Deterministic per-binary candidate cap (address order).
  std::size_t max_candidates = 64;
};

/// One classified candidate window, in the original image's link-time
/// address space.
struct WindowCandidate {
  TriggerKind trigger = TriggerKind::kCondBranch;
  std::uint64_t trigger_addr = 0;  ///< branch pc, or the call pc for kPostCall
  /// kCondBranch only: window is the branch's taken side (else fall-through).
  bool window_taken = false;
  std::uint64_t window_addr = 0;  ///< first transient instruction
  int window_len = 0;             ///< instructions up to and incl. transmit
  int cond_reg = -1;              ///< branch condition register (kCondBranch)
  int attacker_reg = -1;          ///< which attacker register reaches the load
  std::uint64_t load_addr = 0;    ///< attacker-controlled transient load pc
  std::uint64_t xmit_addr = 0;    ///< cache-visible dependent load pc
  int load_width = 1;             ///< 1 = loadb, 8 = load
};

struct MinedGadget {
  WindowCandidate window;
  GadgetClass cls = GadgetClass::kPht;
  Validation validation = Validation::kNone;
  int leaked_byte = -1;  ///< planted secret byte recovered during validation
  /// A standalone replay program exists and passed its self-check.
  bool scenario_eligible = false;
  /// Synthesized replay source (see wrap_attack_standalone); empty when not
  /// scenario-eligible.
  std::string attack_source;
};

struct BinaryReport {
  std::string name;
  std::size_t candidates = 0;  ///< classifier candidates considered
  std::size_t rejected = 0;    ///< candidates that failed validation
  std::vector<MinedGadget> gadgets;
  std::string error;  ///< non-empty when the binary failed to process
};

struct CorpusOptions {
  MineOptions mine;
  /// Number of fuzz-generated programs (seeded, gadget-biased).
  std::size_t generated = 0;
  std::uint64_t seed = 2026;
  /// Percent chance per generated block to splice a Spectre-shaped snippet
  /// (fuzz::GeneratorOptions::gadget_bias).
  int gadget_bias = 60;
  /// Explicit (name, source) binaries mined in addition to the generated
  /// ones (corpus directories, golden seeds).
  std::vector<std::pair<std::string, std::string>> sources;
};

struct CorpusReport {
  std::vector<BinaryReport> binaries;
  // Fold of the per-binary counters.
  std::size_t candidates = 0;
  std::size_t rejected = 0;
  std::size_t gadgets = 0;
  std::size_t leaks = 0;
  std::size_t perturbs = 0;
  std::size_t scenarios = 0;  ///< scenario-eligible gadgets
};

/// Static classifier only (no simulation). `program` must be linked at
/// options.link_base.
std::vector<WindowCandidate> classify_program(const sim::Program& program,
                                              const MineOptions& options = {});

/// Standalone replay-program synthesis; empty when the gadget is not
/// expressible as a safe architectural program (see DESIGN.md §13).
/// `program` is the binary (source + runtime) linked at options.link_base,
/// the image `candidate` was classified in. The returned source references
/// `mine_secret_base`/`mine_secret_len`, provided by wrap_attack_standalone
/// or by the scenario layer.
std::string synthesize_attack_source(const sim::Program& program,
                                     const WindowCandidate& candidate,
                                     const MineOptions& options = {});

/// Completes a synthesized source into a runnable standalone program by
/// defining `mine_secret_len` and embedding `secret` at `mine_secret_base`.
/// core::ScenarioSession applies the injected-mode equivalent (numeric
/// `.equ mine_secret_base` against the host's resolved secret address).
std::string wrap_attack_standalone(const std::string& attack_source,
                                   const std::string& secret);

/// Full per-binary pipeline: assemble source + runtime once, classify,
/// validate, classify-upgrade via the classic ROP pool, synthesize.
BinaryReport mine_source(const std::string& name, const std::string& source,
                         const MineOptions& options = {});

/// Mines generated + explicit binaries on the thread pool. Deterministic:
/// byte-identical reports for any CRS_THREADS.
CorpusReport mine_corpus(const CorpusOptions& options);

/// One row per mined gadget:
/// binary,class,trigger,trigger_addr,window,window_addr,window_len,
/// attacker_reg,load_addr,xmit_addr,load_width,validation,leaked_byte,
/// scenario
std::string corpus_csv(const CorpusReport& report);

/// JSON object with per-binary gadget arrays and the fold totals.
std::string corpus_json(const CorpusReport& report);

/// A core scenario replaying gadget `g`: standalone (the synthesized
/// program runs directly) or ROP-injected into the default host (the
/// injected binary reads the host secret through the mined window).
core::ScenarioConfig mined_scenario(const MinedGadget& g,
                                    const std::string& secret, bool injected);

}  // namespace crs::mine
