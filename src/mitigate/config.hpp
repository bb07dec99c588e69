// Composable speculative-execution mitigations (paper §V context).
//
// The simulator models an undefended machine by default; this library turns
// on the defenses a real deployment would field against Spectre-style
// transient execution, so the attack-vs-defense matrix (tools/crs_matrix)
// can show which modeled defense stops which attack:
//
//  * fence_bounds     — an LFENCE-after-bounds-check hardening pass
//                       (Kiriansky & Waldspurger's "fence on the
//                       mispredictable path"): a load-time pass plants
//                       speculation-barrier hints on conditional branches
//                       fed by a compare, and the CPU refuses to speculate
//                       past a hinted branch.
//  * slh              — speculative load hardening: wrong-path load results
//                       are masked to zero so they cannot form flush+reload
//                       probe addresses (LLVM SLH semantics: the fill of
//                       the first load happens, the dependent access is
//                       poisoned).
//  * retpoline        — no speculation on indirect control flow: indirect
//                       jumps/calls and returns wait for their target
//                       instead of consulting the BTB/RSB.
//  * flush_predictors — Ward-style context-switch hygiene: PHT/BTB/RSB are
//                       flushed on every kernel entry (syscall/execve).
//  * flush_l1         — L1 flush on kernel entry (the L1TF-era hammer).
//  * partition_cache  — way-partitioned L1D/L2: victim-image lines and
//                       attacker/stack lines live in disjoint way groups so
//                       neither side can evict the other's lines.
//  * ward_split       — Ward's unmapped-secret design: while an execve'd
//                       (injected) binary runs, the host image's data pages
//                       are unmapped, so even a transient read of the host
//                       secret faults and squashes without a cache fill.
//
// A MitigationConfig is a plain flag set whose named presets and parse /
// serialize round-trip come from the flag table both defense layers share
// (support/flag_table.hpp), plus an `apply` that lowers the flags onto the
// sim-layer configs and an `arm` that installs the runtime pieces (the fence
// pass and the partition boundary) on a Kernel via its load hook.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "support/flag_table.hpp"

namespace crs::mitigate {

struct MitigationConfig {
  bool fence_bounds = false;
  bool slh = false;
  bool retpoline = false;
  bool flush_predictors = false;
  bool flush_l1 = false;
  bool partition_cache = false;
  bool ward_split = false;

  auto operator<=>(const MitigationConfig&) const = default;

  /// True when at least one mitigation is on.
  bool any() const;

  /// Canonical text form: the preset name when the flag set matches a named
  /// preset exactly, otherwise a comma-joined flag list ("slh,retpoline").
  /// The empty set serializes to "none".
  std::string serialize() const;

  /// Inverse of serialize: accepts a preset name or a comma-joined flag
  /// list. Throws crs::Error listing the valid presets and flags on any
  /// unknown token.
  static MitigationConfig parse(const std::string& text);

  /// Lowers the flags onto the hardware/kernel configs. Call before
  /// constructing the Machine/Kernel.
  void apply(sim::MachineConfig& machine, sim::KernelConfig& kernel) const;
};

/// The layer's flag tokens and presets, behind parse, serialize, any,
/// preset and preset_names.
const FlagTable<MitigationConfig>& flag_table();

/// Named presets, in display order: none, lfence-bounds, slh, retpoline,
/// flush-on-switch, partition, ward-split, full.
const std::vector<std::string>& preset_names();

/// Flag set of a named preset; throws crs::Error (listing valid names) for
/// an unknown one.
MitigationConfig preset(const std::string& name);

/// Cumulative statistics of the load-time fence-insertion pass.
struct FencePassStats {
  std::uint64_t pages_scanned = 0;    ///< executable pages visited
  std::uint64_t branches_scanned = 0; ///< conditional branches inspected
  std::uint64_t fences_planted = 0;   ///< barrier hints written
};

/// Handle returned by arm(): owns the fence-pass statistics accumulated by
/// the kernel's load hook. Keep it alive as long as the kernel may load.
struct Armed {
  std::shared_ptr<FencePassStats> fence_stats =
      std::make_shared<FencePassStats>();
};

/// Installs the runtime half of the mitigations on `kernel`: a load hook
/// that (a) runs the fence-insertion pass over every image the kernel maps
/// or rewrites and (b) pins the cache-partition boundary at the end of the
/// first (victim) image. No-op hook when no armed mitigation needs one.
Armed arm(sim::Kernel& kernel, const MitigationConfig& config);

/// Everything the mitigations did in one run, folded from the CPU, kernel,
/// cache hierarchy and fence-pass counters.
struct MitigationSummary {
  std::uint64_t fence_pages_scanned = 0;
  std::uint64_t fences_planted = 0;
  std::uint64_t fence_stalls = 0;
  std::uint64_t fence_squashes = 0;
  std::uint64_t slh_hardened_loads = 0;
  std::uint64_t slh_masked_loads = 0;
  std::uint64_t retpoline_suppressions = 0;
  std::uint64_t predictor_flushes = 0;
  std::uint64_t predictor_entries_flushed = 0;
  std::uint64_t l1_flushes = 0;
  std::uint64_t l1_lines_flushed = 0;
  std::uint64_t partition_fills = 0;
  std::uint64_t partition_blocked_evictions = 0;
  std::uint64_t ward_lockouts = 0;
  std::uint64_t ward_pages_locked = 0;

  /// Total mitigation activity — the matrix's "did the defense actually
  /// engage" column.
  std::uint64_t total_events() const;
};

/// name → member table over every MitigationSummary counter, in publish
/// order: the one field list behind total_events(), accumulate(), crsim's
/// report and the defense matrix's metrics CSV.
const CounterTable<MitigationSummary>& summary_fields();

/// Adds every counter of `from` into `into` (matrix-cell aggregation).
void accumulate(MitigationSummary& into, const MitigationSummary& from);

/// Collects the summary for one finished run.
MitigationSummary summarize(const sim::Machine& machine,
                            const sim::Kernel& kernel, const Armed& armed);

}  // namespace crs::mitigate
