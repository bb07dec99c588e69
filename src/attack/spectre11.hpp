// Spectre 1.1 (speculative store overflow) attack binary generator.
//
// The hardening subsystem's architectural defenses — canary, redzones,
// guarded heap — all check memory *after it was written*. Spectre 1.1
// (Kiriansky & Waldspurger, "Speculative Buffer Overflows") never commits a
// write: a bounds-checked store
//
//     if (i < len) buf[i] = v;
//
// is mistrained in-bounds, `len` is flushed so the check resolves late, and
// the attacker supplies i = (return slot − buf) and v = &disclosure_gadget.
// On the wrong path the store sits in the speculative store buffer, the
// victim's `ret` forwards it, and control transiently lands on a gadget
// that loads secret[i] and touches probe[byte * 64]. The squash rolls back
// every byte — the canary is never torn, no redzone is dirtied — but the
// probe line stays hot and flush+reload names the byte.
//
// This is the paper's "defense-aware" escalation applied to host
// hardening: when canaries block the architectural ROP write, the same
// chain runs transiently where no integrity check ever fires.
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "sim/program.hpp"

namespace crs::attack {

struct Spectre11Config {
  /// Absolute address of the secret (post-ASLR; the leak stage or the
  /// experimenter's harness supplies it). Used when `embed_secret` is empty.
  std::uint64_t target_secret_address = 0;
  /// Non-empty = standalone PoC: the binary carries its own secret at the
  /// `embedded_secret` symbol and leaks that instead.
  std::string embed_secret;
  std::uint32_t secret_length = 16;

  int train_iterations = 8;  ///< in-bounds stores per byte before the OOB one
  std::uint64_t link_base = 0x300000;
  std::string name = "cr_spectre11";

  auto operator<=>(const Spectre11Config&) const = default;
};

/// Stable display name of the variant (matrix rows, reports).
inline const char* kSpectre11Name = "spectre-1.1";

/// Assembly source of the attack binary (inspectable / disassemblable).
std::string generate_spectre11_source(const Spectre11Config& config);

/// Assembled attack binary ready for Kernel::register_binary.
sim::Program build_spectre11_binary(const Spectre11Config& config);

}  // namespace crs::attack
