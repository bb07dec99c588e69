// Differential execution oracle: one program, N machine configurations.
//
// Configurations fall into two equivalence classes:
//   * exact  — pure simulator-speed knobs (decode cache on/off, serial vs
//     thread-pool campaign execution). EVERYTHING must match bit-for-bit:
//     registers, PMU counters, cycles, chunked retired/cycle/PMU streams,
//     SYS_WRITE output (flush+reload leak bytes), faults, exit codes.
//   * arch-only — legitimate micro-architecture changes (cache geometry,
//     speculation window). Timing differs by design, so only architectural
//     state and timing-independent PMU counters must match; stream samples
//     are taken at retired-instruction boundaries, which are timing-blind.
//
// Every run additionally checks algebraic invariants (cache structural
// consistency, predictor state bounds, PMU cross-counter relations); a
// violation is a divergence even when all configs agree with each other.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "sim/kernel.hpp"
#include "support/rng.hpp"

namespace crs::fuzz {

struct RunLimits {
  /// Retired-instruction cap; overrunning it is NOT a divergence (all
  /// configs are cut at the same retired count) but is reported in results.
  std::uint64_t max_instructions = 2'000'000;
  /// Stream-sample granularity in retired instructions.
  std::uint64_t stream_chunk = 4096;
};

struct ExecConfig {
  std::string name;
  sim::MachineConfig machine;
  /// Timing legitimately differs from the baseline: compare architectural
  /// state and timing-independent counters only.
  bool arch_only = false;
  sim::KernelConfig kernel;
  /// Runs after kernel construction, before start() — the mitigation
  /// property tests use it to install load hooks (fence pass, partition).
  std::function<void(sim::Kernel&)> prepare;
};

/// The standard config set. The first entry is the baseline (decode cache
/// on, default geometry). Arch-only configs are included only for
/// `timing_blind` programs (no rdcycle), where architectural state cannot
/// observe the clock.
std::vector<ExecConfig> standard_configs(bool timing_blind);

struct StreamSample {
  std::uint64_t retired = 0;
  std::uint64_t cycle = 0;
  std::uint64_t pmu_hash = 0;

  bool operator==(const StreamSample&) const = default;
};

struct ExecResult {
  std::string config;
  sim::StopReason stop = sim::StopReason::kHalted;
  sim::FaultKind fault_kind = sim::FaultKind::kNone;
  std::uint64_t fault_pc = 0;
  std::uint64_t fault_addr = 0;
  std::array<std::uint64_t, isa::kNumRegisters> regs{};
  std::uint64_t pc = 0;
  std::uint64_t retired = 0;
  std::uint64_t cycle = 0;
  std::int64_t exit_code = 0;
  std::string output;
  sim::PmuSnapshot pmu{};
  std::vector<StreamSample> stream;
  /// Non-empty = an algebraic invariant broke during/after this run.
  std::string invariant_failure;
};

/// Runs `program` to completion (or the instruction cap) under `config`,
/// sampling the stream every `limits.stream_chunk` retired instructions.
/// `writable_text` maps the whole image RWX after load (required for
/// self-modifying programs; applied identically across configs). The run
/// uses a fork of `sim::shared_baseline(config.machine)`, or `fresh_machine`
/// when given — a `Machine(config.machine)` the caller built, the reference
/// a forked run must match.
ExecResult run_under_config(const sim::Program& program,
                            const ExecConfig& config, const RunLimits& limits,
                            bool writable_text,
                            sim::Machine* fresh_machine = nullptr);

/// "" when `a` and `b` are equivalent under the comparison discipline;
/// otherwise a human-readable first-difference description.
std::string compare_results(const ExecResult& a, const ExecResult& b,
                            bool arch_only);

/// True when this PMU event is a pure function of the architectural
/// instruction stream (timing- and wrong-path-independent).
bool arch_comparable_event(sim::Event e);

struct Divergence {
  std::string kind;  ///< "differential" | "invariant" | "parallel" |
                     ///< "attack" | "hardened"
  std::string config_a;
  std::string config_b;
  std::string detail;
};

/// Full oracle for one generated program: assemble (runtime appended), run
/// under the standard configs, cross-compare, check invariants.
std::optional<Divergence> check_program(const FuzzProgram& program,
                                        const RunLimits& limits = {});

/// Oracle for repro replay: same as check_program but from raw source and
/// explicit flags (as recorded in a corpus file header).
std::optional<Divergence> check_source(const std::string& source,
                                       bool uses_smc, bool uses_rdcycle,
                                       const RunLimits& limits = {});

/// Hardened-layout oracle: the same program under a hardened kernel
/// (seeded ASLR image/stack relocation + guarded heap) must execute
/// bit-identically across the standard configs — the layout draws happen at
/// load, before user code runs, so with a fixed kernel seed every engine
/// and geometry sees the same relocated world. Divergence kind "hardened".
std::optional<Divergence> check_hardened(const std::string& source,
                                         bool uses_smc, bool uses_rdcycle,
                                         std::uint64_t seed,
                                         const RunLimits& limits = {});

/// Leak oracle: builds a standalone flush+reload attack binary with
/// randomized parameters and asserts the recovered secret bytes (and all
/// other state) are identical across exact-equivalence configs.
std::optional<Divergence> check_attack_leak(Rng& rng,
                                            const RunLimits& limits = {});

/// Campaign-parallelism oracle: `count` generated programs executed
/// serially and on a `threads`-wide pool must produce per-index identical
/// results (the deterministic-parallelism contract of src/support).
std::optional<Divergence> check_parallel_batch(std::uint64_t base_seed,
                                               int count, unsigned threads,
                                               const GeneratorOptions& options,
                                               const RunLimits& limits = {});

}  // namespace crs::fuzz
