// Host hardening layer (the defenses CR-Spectre's injection must defeat).
//
// The mitigation library (src/mitigate) models *speculation* defenses; this
// library models the classic *memory-safety* hardening a real host stacks
// underneath them — the layers the paper's stack-overflow injection assumes
// absent, and the layers speculative probing (Mambretti et al.) and Spectre
// 1.1 store overflows (Kiriansky & Waldspurger) were built to pierce:
//
//  * aslr       — per-run randomized image AND stack bases, drawn from the
//                 kernel RNG (seeded ⇒ deterministic per scenario seed).
//                 Absolute gadget addresses and the overflow target move
//                 every attempt.
//  * canary     — stack canaries: the workload scaffold plants the kernel's
//                 per-run `__canary` value below the return slot at frame
//                 setup and checks it before returning; a mismatch aborts
//                 the process (FaultKind::kStackCanary) before the ROP
//                 chain's first gadget runs.
//  * heap-guard — guarded bump/free-list heap: SYS_HEAP_ALLOC surrounds
//                 every chunk with pattern-filled redzones and SYS_HEAP_FREE
//                 verifies them, faulting on a torn redzone
//                 (FaultKind::kHeapRedzone).
//
// HardenConfig is a plain flag set with named presets {none, aslr, canary,
// heap-guard, full}. Its parse/serialize round-trip and its counter folds
// come from the flag table it shares with MitigationConfig
// (support/flag_table.hpp); this layer adds an `apply` lowering onto
// sim::KernelConfig and a summary that folds sim::KernelHardenStats, masked
// by the active flags so a hardened-off run reports zero engagement.
//
// Determinism contract: every randomized quantity is drawn from the kernel
// RNG in a FIXED order per run — [stack delta][image delta][canary value] —
// so the same scenario seed rebuilds the same layout on any thread count,
// on a fresh machine or a restored one, and for either exec engine; and the
// leak-stage probe pass (src/harden/probe.*) replays the identical stream
// before the exploit pass.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "support/flag_table.hpp"

namespace crs::harden {

struct HardenConfig {
  bool aslr = false;        ///< randomized image + stack bases
  bool canary = false;      ///< stack canary plant + return check
  bool heap_guard = false;  ///< redzone-guarded heap

  auto operator<=>(const HardenConfig&) const = default;

  /// True when at least one hardening layer is on.
  bool any() const;

  /// Canonical text form: the preset name when the flag set matches one
  /// exactly, otherwise a comma-joined flag list ("aslr,canary"). The empty
  /// set serializes to "none".
  std::string serialize() const;

  /// Inverse of serialize: accepts a preset name or a comma-joined flag
  /// list. Throws crs::Error listing the valid presets and flags on any
  /// unknown token.
  static HardenConfig parse(const std::string& text);

  /// Lowers the flags onto the kernel config (aslr → image + stack base
  /// randomization, heap_guard → redzone checks). The canary flag has no
  /// kernel knob: it selects the canary-checking workload scaffold, which
  /// core::ScenarioSession wires through WorkloadOptions. Call before
  /// constructing the Kernel.
  void apply(sim::KernelConfig& kernel) const;
};

/// The layer's flag tokens and presets, behind parse, serialize, any,
/// preset and preset_names.
const FlagTable<HardenConfig>& flag_table();

/// Named presets, in display order: none, aslr, canary, heap-guard, full.
const std::vector<std::string>& preset_names();

/// Flag set of a named preset; throws crs::Error (listing valid names) for
/// an unknown one.
HardenConfig preset(const std::string& name);

/// What the hardening layers did in one run — sim::KernelHardenStats masked
/// by the flags that are actually on, so "did the defense engage" reads
/// zero under the none preset even though the loader always plants a canary
/// value for images that declare one.
struct HardenSummary {
  std::uint64_t images_randomized = 0;
  std::uint64_t stacks_randomized = 0;
  std::uint64_t canaries_planted = 0;
  std::uint64_t canary_aborts = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_frees = 0;
  std::uint64_t redzone_bytes_checked = 0;
  std::uint64_t redzone_violations = 0;

  /// Total hardening activity — the sweep's "did the defense engage" column.
  std::uint64_t total_events() const;
};

/// name → member table over every HardenSummary counter, in publish order:
/// the one field list behind total_events(), accumulate(), crsim's report
/// and the harden sweep's metrics CSV.
const CounterTable<HardenSummary>& summary_fields();

/// Adds every counter of `from` into `into` (sweep-cell aggregation).
void accumulate(HardenSummary& into, const HardenSummary& from);

/// Collects the (config-masked) summary for one finished run.
HardenSummary summarize(const sim::Kernel& kernel, const HardenConfig& config);

}  // namespace crs::harden
