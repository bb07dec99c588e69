// The CR-Spectre attack binary generator.
//
// Produces a complete, self-contained attack program (in the simulated ISA)
// that recovers a secret byte-by-byte over the flush+reload covert channel:
//
//   per byte:
//     1. mistrain / arm the predictor structure of the chosen variant,
//     2. flush the probe array (and the bound, for the PHT variant),
//     3. trigger one transient out-of-bounds access of secret[i],
//     4. time a load of each probe line and pick the leaked one,
//     5. optionally call the Algorithm-2 perturbation routine,
//   then SYS_WRITE the recovered bytes and SYS_EXIT (which, when the binary
//   was ROP-injected, resumes the host).
//
// Variants (paper §III-B1 cites Spectre [3] and the RSB/stride variants
// [20], [21]; accuracies are averaged over variants):
//   kPht    — classic v1 bounds-check bypass via the PHT.
//   kRsb    — return-address overwrite; the RSB predicts the stale return
//             site, which holds the leak gadget (SpectreRSB-style [20]).
//   kStride — v1 with a non-standard probe stride and double-indexed
//             access pattern (speculative-buffer-overflow flavour [21]);
//             same leak, different cache/branch footprint.
//   kBtb    — v2-style branch-target injection (same address space): an
//             indirect dispatch is trained toward the leak gadget, the
//             function pointer is then repointed and its cache line
//             flushed, so the dispatch transiently executes the stale
//             BTB target with attacker-chosen arguments.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "perturb/perturb.hpp"
#include "sim/program.hpp"

namespace crs::attack {

enum class SpectreVariant { kPht, kRsb, kStride, kBtb };

/// All implemented variants, in a stable order.
std::vector<SpectreVariant> all_variants();

std::string variant_name(SpectreVariant variant);

enum class RecoveryMode {
  kMinLatency,  ///< guess = argmin over probe-line load latencies (robust)
  kThreshold,   ///< guess = first line faster than `threshold` (classic)
};

/// The cache covert channel the receiver uses.
enum class CovertChannel {
  /// flush+reload: clflush the probe array, time per-line reloads.
  kFlushReload,
  /// prime+probe: completely clflush/mfence-light — per secret value the
  /// attacker owns an 8-way eviction set aliasing the probe line's L2 set
  /// (walked as a pointer chain for dependent timing); the victim's
  /// transient fill evicts one way, and the slowest re-walk names the
  /// byte. The bounds check is delayed by eviction instead of clflush.
  /// This is the attacker's answer to §IV's "disable clflush" proposal.
  /// Only implemented for the kPht variant.
  kPrimeProbe,
};

struct AttackConfig {
  SpectreVariant variant = SpectreVariant::kPht;

  /// Absolute address of the secret (the adversary knows it: paper §II-A).
  /// Used when `embed_secret` is empty.
  std::uint64_t target_secret_address = 0;
  /// Non-empty = standalone ("traditional") Spectre: the binary carries its
  /// own secret at the `embedded_secret` symbol and leaks that instead.
  std::string embed_secret;
  std::uint32_t secret_length = 16;

  int train_iterations = 8;     ///< PHT mistraining calls per byte
  CovertChannel channel = CovertChannel::kFlushReload;
  RecoveryMode recovery = RecoveryMode::kMinLatency;
  std::uint32_t threshold = 60; ///< cycles, for kThreshold
  /// Transient-access + probe rounds per byte, majority-voted. Real PoCs
  /// retry because a single transient window can fail to fire; >1 also
  /// makes recovery robust when the perturbation pollutes the probe array.
  int rounds_per_byte = 1;

  /// Probe-line stride in bytes (64 = classic; the stride variant uses
  /// larger values). Must be a multiple of the cache line size.
  std::uint32_t probe_stride = 64;

  /// Perturbation: empty = none. Generated via perturb::.
  bool perturb = false;
  perturb::PerturbParams perturb_params;
  int perturb_every = 1;  ///< call perturb() after every N recovered bytes
  /// Also call perturb() every N probe lines inside the reload scan
  /// (power of two; 0 = off). This interleaves Algorithm 2 with the
  /// attack's hottest loop so *every* profiling window is contaminated,
  /// not just the inter-byte gaps. Smaller = stronger dilution of the
  /// attack's own cache bursts.
  int perturb_probe_interval = 16;

  std::uint64_t link_base = 0x300000;
  std::string name = "cr_spectre";

  auto operator<=>(const AttackConfig&) const = default;
};

/// Assembly source of the attack binary (inspectable / disassemblable).
std::string generate_attack_source(const AttackConfig& config);

/// Assembled attack binary ready for Kernel::register_binary.
sim::Program build_attack_binary(const AttackConfig& config);

}  // namespace crs::attack
