// Shared helpers for tests that assemble and run simulated programs.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "sim/kernel.hpp"

namespace crs::test {

/// Assembles `source` with the runtime library appended.
inline sim::Program assemble_with_runtime(const std::string& source,
                                          const std::string& name = "prog",
                                          std::uint64_t link_base = 0x10000) {
  casm::AssembleOptions opt;
  opt.name = name;
  opt.link_base = link_base;
  return casm::assemble(source + casm::runtime_library(), opt);
}

/// Machine + kernel with one registered program, ready to start.
class SimHarness {
 public:
  explicit SimHarness(const sim::KernelConfig& kcfg = {},
                      const sim::MachineConfig& mcfg = {})
      : machine_(mcfg), kernel_(machine_, kcfg) {}

  /// Assembles (runtime appended) and registers under `path`.
  const sim::Program& add_program(const std::string& source,
                                  const std::string& path,
                                  std::uint64_t link_base = 0x10000) {
    programs_[path] =
        assemble_with_runtime(source, path, link_base);
    kernel_.register_binary(path, programs_[path]);
    return programs_[path];
  }

  sim::StopReason run_program(const std::string& path,
                              const std::vector<std::string>& args = {},
                              std::uint64_t max_instructions = 10'000'000) {
    kernel_.start_with_strings(path, args);
    return kernel_.run(max_instructions);
  }

  sim::StopReason run_program_raw(
      const std::string& path,
      const std::vector<std::vector<std::uint8_t>>& args,
      std::uint64_t max_instructions = 10'000'000) {
    kernel_.start(path, args);
    return kernel_.run(max_instructions);
  }

  /// Single-steps the CPU until it halts, calling `on_step` (if any) after
  /// each step. A program that exceeds `max_steps` is reported as a test
  /// failure with pc/retired diagnostics instead of hanging ctest forever.
  /// Returns true when the CPU halted within the budget.
  template <typename OnStep>
  bool run_to_halt(std::uint64_t max_steps, OnStep&& on_step) {
    auto& cpu = machine_.cpu();
    for (std::uint64_t steps = 0; !cpu.halted(); ++steps) {
      if (steps >= max_steps) {
        ADD_FAILURE() << "program did not halt within " << max_steps
                      << " steps (pc=0x" << std::hex << cpu.pc() << std::dec
                      << ", retired=" << cpu.retired() << ")";
        return false;
      }
      cpu.step();
      on_step();
    }
    return true;
  }

  bool run_to_halt(std::uint64_t max_steps) {
    return run_to_halt(max_steps, [] {});
  }

  sim::Machine& machine() { return machine_; }
  sim::Kernel& kernel() { return kernel_; }
  const sim::Program& program(const std::string& path) {
    return programs_.at(path);
  }

 private:
  sim::Machine machine_;
  sim::Kernel kernel_;
  std::map<std::string, sim::Program> programs_;
};

/// Runs `fn` with the process-wide default execution engine set to
/// `engine`, restoring the previous default afterwards.
template <typename Fn>
void with_engine(sim::ExecEngine engine, Fn fn) {
  const sim::ExecEngine before = sim::default_exec_engine();
  sim::set_default_exec_engine(engine);
  fn();
  sim::set_default_exec_engine(before);
}

}  // namespace crs::test
