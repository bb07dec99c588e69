// Defense-aware dynamic perturbation generation (paper §II-E, Algorithm 2).
//
// The perturbation routine is a parameterised ladder of `if (i < v)` blocks
// whose bodies clflush+mfence the loop variables' own memory locations and
// step the variables — contaminating exactly the HPC events the HID trains
// on (cache misses/accesses, branches, instruction mix). Varying the
// parameters {a, b, steps, loop count, extra ladders, delay} yields a new
// micro-architectural signature per variant: "each generated variant
// producing a different HPC pattern."
//
// The generator emits assembly text that the attack-binary generator splices
// in; `VariantMutator` implements the adaptation policy — whenever the HID
// detects the current variant, the attacker draws the next one.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>

#include "support/rng.hpp"

namespace crs::perturb {

/// Flavour of the dispersal loop's body. Each style imitates a different
/// benign behaviour class, so successive variants drift toward *different*
/// regions of the feature space — the moving-target property that defeats
/// online retraining until the defender has seen every direction.
enum class MimicStyle : int {
  kHotAlu = 0,   ///< cache-hot loads + ALU (compute-bound benign)
  kStrided = 1,  ///< strided cold loads (pointer-chasing benign)
  kBranchy = 2,  ///< data-dependent branches (sort/search benign)
  kStores = 3,   ///< store + ALU mix (image/array-writing benign)
};

std::string mimic_style_name(MimicStyle style);

struct PerturbParams {
  int a = 11;         ///< Algorithm 2 line 2
  int b = 6;          ///< Algorithm 2 line 2
  int loop_count = 10;
  int a_step = 50;    ///< Algorithm 2 line 7
  int b_step = 10;    ///< Algorithm 2 lines 12/15
  int extra_ladders = 0;  ///< "More loops can be added here" (line 16)
  int delay = 0;          ///< dispersal-loop iterations (§II-E end)
  MimicStyle style = MimicStyle::kHotAlu;  ///< dispersal-loop flavour
  /// Replace every clflush+mfence pair with an eviction-set walk: the
  /// perturbation for a system that bans unprivileged flush/fence
  /// instructions (§IV) — pairs with the prime+probe covert channel.
  bool flushless = false;

  auto operator<=>(const PerturbParams&) const = default;

  /// e.g. "a=11 b=6 n=10 as=50 bs=10 x=0 d=0 s=hot_alu"
  std::string describe() const;
};

/// Emits the routine as assembly with entry label `label`. The routine
/// clobbers r4..r9 and uses `.data` words `<label>_a`, `<label>_b`, and
/// `<label>_c<k>` for the extra ladders.
std::string generate_perturb_source(const PerturbParams& params,
                                    std::string_view label = "perturb");

/// Emits a no-op routine with the same label/interface, so the attack
/// binary can be generated "without perturbation" uniformly.
std::string generate_noop_perturb_source(std::string_view label = "perturb");

/// Draws successive perturbation variants. Deterministic per seed; never
/// returns two identical consecutive parameter sets.
class VariantMutator {
 public:
  VariantMutator(const PerturbParams& initial, std::uint64_t seed);

  const PerturbParams& current() const { return current_; }

  /// Mutates to (and returns) the next variant.
  const PerturbParams& next();

  int generation() const { return generation_; }

 private:
  PerturbParams draw();

  PerturbParams current_;
  Rng rng_;
  int generation_ = 0;
};

}  // namespace crs::perturb
