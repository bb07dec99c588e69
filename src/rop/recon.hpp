// Reconnaissance of the vulnerable stack frame.
//
// The paper's authors inspected the victim in GDB to learn the buffer
// layout and gadget addresses. This module is the equivalent: it runs the
// host once with a benign input under single-step instrumentation
// ("breakpoints" at the vulnerable function's entry and post-prologue
// labels) and measures
//   - the saved-return-address slot (sp at function entry),
//   - the buffer start (sp after the prologue),
//   - the legitimate resume address (the value in the return slot),
// from which the payload's filler length follows. The run happens on a
// scratch machine; nothing leaks into the measured experiment.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/program.hpp"

namespace crs::rop {

struct FrameRecon {
  std::uint64_t buffer_address = 0;  ///< where the payload will be copied
  std::uint64_t return_slot = 0;     ///< address of the saved return address
  std::uint64_t resume_address = 0;  ///< original value of the return slot
  std::uint64_t filler_length = 0;   ///< return_slot - buffer_address
  /// Program-entry sp of the recon run (argv lengths marshalled, 16-aligned).
  /// The leak stage rebases stack addresses as (leaked sp − start_sp): with
  /// length-matched argv the whole frame shifts rigidly under stack ASLR.
  std::uint64_t start_sp = 0;
};

struct ReconSpec {
  std::string path;                 ///< registered binary to run
  std::string entry_label = "read_input";
  std::string body_label = "read_input_body";
  std::vector<std::string> benign_args;  ///< e.g. {"hello"}
  std::uint64_t max_instructions = 10'000'000;

  auto operator<=>(const ReconSpec&) const = default;
};

/// Runs the recon on a fresh scratch machine built from `program`
/// (registered under spec.path, no ASLR — the setting the attack assumes).
/// Throws crs::Error when either breakpoint is never reached.
FrameRecon recon_vulnerable_frame(const sim::Program& program,
                                  const ReconSpec& spec);

}  // namespace crs::rop
