#include "fuzz/differ.hpp"

#include <algorithm>
#include <cstdio>

#include <optional>

#include "attack/spectre.hpp"
#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "harden/config.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"

namespace crs::fuzz {

namespace {

std::uint64_t fnv1a(const sim::PmuSnapshot& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const auto v : s) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

sim::Program assemble_fuzz(const std::string& source) {
  casm::AssembleOptions opt;
  opt.name = "fuzz";
  opt.link_base = 0x10000;
  return casm::assemble(source + casm::runtime_library(), opt);
}

/// Algebraic invariants checked after every run.
std::string check_invariants(sim::Machine& machine) {
  auto& cpu = machine.cpu();
  if (auto v = machine.hierarchy().check_invariants(); !v.empty()) {
    return "cache: " + v;
  }
  const auto& pmu = machine.pmu();
  const auto count = [&](sim::Event e) { return pmu.count(e); };
  using sim::Event;
  if (count(Event::kInstructions) != cpu.retired()) {
    return "pmu instructions (" + std::to_string(count(Event::kInstructions)) +
           ") != retired (" + std::to_string(cpu.retired()) + ")";
  }
  if (count(Event::kCycles) > cpu.cycle()) {
    return "pmu cycles (" + std::to_string(count(Event::kCycles)) +
           ") ahead of cpu cycle (" + std::to_string(cpu.cycle()) + ")";
  }
  const struct {
    Event miss, access;
    const char* name;
  } kLevels[] = {{Event::kL1dMisses, Event::kL1dAccesses, "l1d"},
                 {Event::kL1iMisses, Event::kL1iAccesses, "l1i"},
                 {Event::kL2Misses, Event::kL2Accesses, "l2"}};
  for (const auto& lvl : kLevels) {
    if (count(lvl.miss) > count(lvl.access)) {
      return std::string(lvl.name) + " misses (" +
             std::to_string(count(lvl.miss)) + ") exceed accesses (" +
             std::to_string(count(lvl.access)) + ")";
    }
  }
  if (count(Event::kTakenBranches) > count(Event::kBranches)) {
    return "taken branches exceed retired branches";
  }

  // The observability stats are bumped on the cache fast path itself, so
  // they must reconcile exactly with the PMU's attribution. L1 levels map
  // one-to-one; the L2 additionally absorbs fetch-path refills that the
  // PMU books under kL1iMisses rather than kL2Accesses.
  const auto& hier = machine.hierarchy();
  const struct {
    const sim::CacheLevelStats& stats;
    std::uint64_t accesses, misses;
    const char* name;
  } kStatLevels[] = {
      {hier.l1d().stats(), count(Event::kL1dAccesses),
       count(Event::kL1dMisses), "l1d"},
      {hier.l1i().stats(), count(Event::kL1iAccesses),
       count(Event::kL1iMisses), "l1i"},
  };
  for (const auto& lvl : kStatLevels) {
    if (lvl.stats.hits + lvl.stats.misses != lvl.accesses) {
      return std::string(lvl.name) + " stats hits+misses (" +
             std::to_string(lvl.stats.hits + lvl.stats.misses) +
             ") != pmu accesses (" + std::to_string(lvl.accesses) + ")";
    }
    if (lvl.stats.misses != lvl.misses) {
      return std::string(lvl.name) + " stats misses (" +
             std::to_string(lvl.stats.misses) + ") != pmu misses (" +
             std::to_string(lvl.misses) + ")";
    }
  }
  const auto& l2 = hier.l2().stats();
  const std::uint64_t l2_expected =
      count(Event::kL2Accesses) + count(Event::kL1iMisses);
  if (l2.hits + l2.misses != l2_expected) {
    return "l2 stats hits+misses (" + std::to_string(l2.hits + l2.misses) +
           ") != pmu L2 accesses + L1i misses (" +
           std::to_string(l2_expected) + ")";
  }
  if (l2.misses < count(Event::kL2Misses)) {
    return "l2 stats misses (" + std::to_string(l2.misses) +
           ") below pmu L2 misses (" +
           std::to_string(count(Event::kL2Misses)) + ")";
  }
  if (count(Event::kRsbMispredicts) > count(Event::kReturns)) {
    return "RSB mispredicts exceed retired returns";
  }

  // Predictor state bounds: every PHT counter saturates at 3; the RSB never
  // holds more than its ring.
  const auto& pcfg = machine.config().predictor;
  const auto& pred = machine.predictor();
  for (std::uint64_t i = 0; i < pcfg.pht_entries; ++i) {
    if (pred.pht().counter(i * 8) > 3) {
      return "PHT counter " + std::to_string(i) + " left saturation range";
    }
  }
  if (pred.rsb().depth() > pcfg.rsb_entries) {
    return "RSB depth " + std::to_string(pred.rsb().depth()) +
           " exceeds capacity " + std::to_string(pcfg.rsb_entries);
  }
  return {};
}

}  // namespace

std::vector<ExecConfig> standard_configs(bool timing_blind) {
  std::vector<ExecConfig> configs;
  {
    // Baseline: the threaded-code block engine, pinned explicitly so the
    // cross-engine oracle below holds even when `--exec` flips the process
    // default. Every program in every corpus is crossed against the
    // interpreter — the block translator's bit-identity gate.
    ExecConfig c;
    c.name = "blocks";
    c.machine.cpu.exec_engine = sim::ExecEngine::kBlocks;
    configs.push_back(c);
  }
  {
    ExecConfig c;
    c.name = "interp";
    c.machine.cpu.exec_engine = sim::ExecEngine::kInterp;
    configs.push_back(c);
  }
  {
    // The PR-1 decode-cache oracle, now under the engine that uses it.
    ExecConfig c;
    c.name = "interp-dcache-off";
    c.machine.cpu.exec_engine = sim::ExecEngine::kInterp;
    c.machine.cpu.decode_cache = false;
    configs.push_back(c);
  }
  if (timing_blind) {
    {
      // Tiny L1D / small L2: every latency changes, architecture must not.
      ExecConfig c;
      c.name = "l1d-tiny";
      c.arch_only = true;
      c.machine.hierarchy.l1d = {4 * 1024, 64, 2};
      c.machine.hierarchy.l2 = {64 * 1024, 64, 4};
      configs.push_back(c);
    }
    {
      ExecConfig c;
      c.name = "spec-narrow";
      c.arch_only = true;
      c.machine.cpu.max_spec_window = 4;
      configs.push_back(c);
    }
    {
      ExecConfig c;
      c.name = "spec-wide";
      c.arch_only = true;
      c.machine.cpu.max_spec_window = 192;
      c.machine.cpu.rob_window = 384;
      configs.push_back(c);
    }
  }
  return configs;
}

bool arch_comparable_event(sim::Event e) {
  using sim::Event;
  switch (e) {
    case Event::kCycles:
    case Event::kSpecInstructions:
    case Event::kSpecLoads:
    case Event::kL1dAccesses:
    case Event::kL1dMisses:
    case Event::kL1iAccesses:
    case Event::kL1iMisses:
    case Event::kL2Accesses:
    case Event::kL2Misses:
      return false;
    default:
      return true;
  }
}

ExecResult run_under_config(const sim::Program& program,
                            const ExecConfig& config, const RunLimits& limits,
                            bool writable_text, sim::Machine* machine) {
  std::optional<sim::Machine> own;
  if (machine == nullptr) machine = &own.emplace(config.machine);
  sim::Kernel kernel(*machine, config.kernel);
  if (config.prepare) config.prepare(kernel);
  kernel.register_binary("/bin/fuzz", program);
  kernel.start_with_strings("/bin/fuzz", {"fuzz"});

  if (writable_text) {
    // Self-modifying programs patch their own text. Lifting DEP bumps every
    // image page's version — identically in every config, so comparisons
    // remain valid and the decode cache still sees the bumps it must honour.
    const auto& img = kernel.main_image();
    const auto page = sim::Memory::kPageSize;
    const auto lo = img.lo / page * page;
    const auto hi = (img.hi + page - 1) / page * page;
    machine->memory().set_permissions(
        lo, hi - lo,
        static_cast<sim::Perm>(sim::kPermRead | sim::kPermWrite |
                               sim::kPermExec));
  }

  ExecResult res;
  res.config = config.name;
  auto& cpu = machine->cpu();
  auto stop = sim::StopReason::kInstructionLimit;
  while (true) {
    const std::uint64_t done = cpu.retired();
    if (done >= limits.max_instructions) break;
    const std::uint64_t budget =
        std::min(limits.stream_chunk, limits.max_instructions - done);
    stop = kernel.run(budget);
    res.stream.push_back(
        {cpu.retired(), cpu.cycle(), fnv1a(machine->pmu().snapshot())});
    if (stop != sim::StopReason::kInstructionLimit) break;
  }

  res.stop = stop;
  res.fault_kind = cpu.fault().kind;
  res.fault_pc = cpu.fault().pc;
  res.fault_addr = cpu.fault().addr;
  for (int r = 0; r < isa::kNumRegisters; ++r) {
    res.regs[static_cast<std::size_t>(r)] = cpu.reg(r);
  }
  res.pc = cpu.pc();
  res.retired = cpu.retired();
  res.cycle = cpu.cycle();
  res.exit_code = kernel.exit_code();
  res.output = kernel.output_string();
  res.pmu = machine->pmu().snapshot();
  res.invariant_failure = check_invariants(*machine);
  return res;
}

std::string compare_results(const ExecResult& a, const ExecResult& b,
                            bool arch_only) {
  const auto tag = [&](const std::string& what, const std::string& va,
                       const std::string& vb) {
    return what + ": " + va + " (" + a.config + ") vs " + vb + " (" + b.config +
           ")";
  };
  const auto num = [&](const std::string& what, std::uint64_t va,
                       std::uint64_t vb) {
    return va == vb ? std::string{} : tag(what, hex(va), hex(vb));
  };

  if (a.stop != b.stop) {
    return tag("stop reason", std::to_string(static_cast<int>(a.stop)),
               std::to_string(static_cast<int>(b.stop)));
  }
  if (a.fault_kind != b.fault_kind) {
    return tag("fault kind", std::to_string(static_cast<int>(a.fault_kind)),
               std::to_string(static_cast<int>(b.fault_kind)));
  }
  if (auto d = num("fault pc", a.fault_pc, b.fault_pc); !d.empty()) return d;
  if (auto d = num("fault addr", a.fault_addr, b.fault_addr); !d.empty())
    return d;
  if (auto d = num("exit code", static_cast<std::uint64_t>(a.exit_code),
                   static_cast<std::uint64_t>(b.exit_code));
      !d.empty())
    return d;
  if (auto d = num("final pc", a.pc, b.pc); !d.empty()) return d;
  if (auto d = num("retired", a.retired, b.retired); !d.empty()) return d;
  for (int r = 0; r < isa::kNumRegisters; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (a.regs[i] != b.regs[i]) {
      return tag("reg " + std::string(isa::register_name(r)), hex(a.regs[i]),
                 hex(b.regs[i]));
    }
  }
  if (a.output != b.output) {
    if (a.output.size() != b.output.size()) {
      return tag("output length", std::to_string(a.output.size()),
                 std::to_string(b.output.size()));
    }
    for (std::size_t i = 0; i < a.output.size(); ++i) {
      if (a.output[i] != b.output[i]) {
        return tag("output byte " + std::to_string(i),
                   hex(static_cast<std::uint8_t>(a.output[i])),
                   hex(static_cast<std::uint8_t>(b.output[i])));
      }
    }
  }
  for (std::size_t e = 0; e < sim::kEventCount; ++e) {
    const auto ev = static_cast<sim::Event>(e);
    if (arch_only && !arch_comparable_event(ev)) continue;
    if (a.pmu[e] != b.pmu[e]) {
      return tag("pmu " + std::string(sim::event_name(ev)),
                 std::to_string(a.pmu[e]), std::to_string(b.pmu[e]));
    }
  }
  if (!arch_only) {
    if (auto d = num("cycles", a.cycle, b.cycle); !d.empty()) return d;
  }
  if (a.stream.size() != b.stream.size()) {
    return tag("stream length", std::to_string(a.stream.size()),
               std::to_string(b.stream.size()));
  }
  for (std::size_t i = 0; i < a.stream.size(); ++i) {
    const auto& sa = a.stream[i];
    const auto& sb = b.stream[i];
    if (sa.retired != sb.retired) {
      return tag("stream[" + std::to_string(i) + "].retired",
                 std::to_string(sa.retired), std::to_string(sb.retired));
    }
    if (!arch_only && (sa.cycle != sb.cycle || sa.pmu_hash != sb.pmu_hash)) {
      return tag("stream[" + std::to_string(i) + "]",
                 std::to_string(sa.cycle) + "/" + hex(sa.pmu_hash),
                 std::to_string(sb.cycle) + "/" + hex(sb.pmu_hash));
    }
  }
  return {};
}

namespace {

std::optional<Divergence> run_config_set(const sim::Program& program,
                                         const std::vector<ExecConfig>& configs,
                                         bool uses_smc, const char* kind,
                                         const RunLimits& limits) {
  std::vector<ExecResult> results;
  results.reserve(configs.size());
  for (const auto& cfg : configs) {
    results.push_back(run_under_config(program, cfg, limits, uses_smc));
    const auto& res = results.back();
    if (!res.invariant_failure.empty()) {
      return Divergence{"invariant", res.config, "", res.invariant_failure};
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    const auto detail =
        compare_results(results[0], results[i], configs[i].arch_only);
    if (!detail.empty()) {
      return Divergence{kind, results[0].config, results[i].config, detail};
    }
  }
  return std::nullopt;
}

std::optional<Divergence> check_assembled(const sim::Program& program,
                                          bool uses_smc, bool uses_rdcycle,
                                          const RunLimits& limits) {
  return run_config_set(program, standard_configs(!uses_rdcycle), uses_smc,
                        "differential", limits);
}

}  // namespace

std::optional<Divergence> check_program(const FuzzProgram& program,
                                        const RunLimits& limits) {
  return check_source(program.source(), program.uses_smc, program.uses_rdcycle,
                      limits);
}

std::optional<Divergence> check_source(const std::string& source,
                                       bool uses_smc, bool uses_rdcycle,
                                       const RunLimits& limits) {
  return check_assembled(assemble_fuzz(source), uses_smc, uses_rdcycle, limits);
}

std::optional<Divergence> check_hardened(const std::string& source,
                                         bool uses_smc, bool uses_rdcycle,
                                         std::uint64_t seed,
                                         const RunLimits& limits) {
  const sim::Program program = assemble_fuzz(source);
  std::vector<ExecConfig> configs = standard_configs(!uses_rdcycle);
  harden::HardenConfig harden;
  harden.aslr = true;
  harden.heap_guard = true;
  for (auto& cfg : configs) {
    cfg.name = "harden-" + cfg.name;
    // One seed for every config: the loader's layout draws are the first
    // things off the kernel RNG, so all configs see the same relocation.
    cfg.kernel.seed = seed;
    harden.apply(cfg.kernel);
  }
  return run_config_set(program, configs, uses_smc, "hardened", limits);
}

std::optional<Divergence> check_attack_leak(Rng& rng, const RunLimits& limits) {
  attack::AttackConfig acfg;
  const auto variants = attack::all_variants();
  acfg.variant = variants[rng.next_below(variants.size())];
  std::string secret;
  for (int i = 0; i < 8; ++i) {
    secret += static_cast<char>('A' + rng.next_below(26));
  }
  acfg.embed_secret = secret;
  acfg.secret_length = static_cast<std::uint32_t>(secret.size());
  acfg.train_iterations = 4 + static_cast<int>(rng.next_below(5));
  acfg.rounds_per_byte = 1;
  acfg.probe_stride = rng.next_bernoulli(0.5) ? 64 : 128;
  if (rng.next_bernoulli(0.5)) {
    acfg.perturb = true;
    perturb::VariantMutator mutator({}, rng.next_u64());
    acfg.perturb_params = mutator.next();
  }
  const auto program = attack::build_attack_binary(acfg);

  // The attack reads the clock (rdcycle): exact-equivalence configs only.
  const auto configs = standard_configs(/*timing_blind=*/false);
  const auto label = "attack(" + attack::variant_name(acfg.variant) +
                     ", stride=" + std::to_string(acfg.probe_stride) +
                     (acfg.perturb ? ", perturbed" : "") + ")";
  std::vector<ExecResult> results;
  for (const auto& cfg : configs) {
    results.push_back(
        run_under_config(program, cfg, limits, /*writable_text=*/false));
    const auto& res = results.back();
    if (!res.invariant_failure.empty()) {
      return Divergence{"invariant", res.config, "",
                        label + ": " + res.invariant_failure};
    }
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    const auto detail = compare_results(results[0], results[i],
                                        /*arch_only=*/false);
    if (!detail.empty()) {
      return Divergence{"attack", results[0].config, results[i].config,
                        label + ": " + detail};
    }
  }
  return std::nullopt;
}

std::optional<Divergence> check_parallel_batch(std::uint64_t base_seed,
                                               int count, unsigned threads,
                                               const GeneratorOptions& options,
                                               const RunLimits& limits) {
  std::vector<sim::Program> programs;
  std::vector<bool> smc;
  for (int i = 0; i < count; ++i) {
    Rng rng(derive_seed(base_seed, static_cast<std::uint64_t>(i)));
    const auto prog = generate_program(rng, options);
    programs.push_back(assemble_fuzz(prog.source()));
    smc.push_back(prog.uses_smc);
  }
  ExecConfig base;
  base.name = "blocks";
  base.machine.cpu.exec_engine = sim::ExecEngine::kBlocks;

  std::vector<ExecResult> serial;
  serial.reserve(programs.size());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    serial.push_back(run_under_config(programs[i], base, limits, smc[i]));
  }

  ThreadPool pool(threads);
  auto pooled = parallel_map<ExecResult>(pool, programs.size(), [&](std::size_t i) {
    return run_under_config(programs[i], base, limits, smc[i]);
  });

  for (std::size_t i = 0; i < programs.size(); ++i) {
    auto detail = compare_results(serial[i], pooled[i], /*arch_only=*/false);
    if (!detail.empty()) {
      return Divergence{
          "parallel", "serial", "pool-" + std::to_string(pool.size()),
          "item " + std::to_string(i) + " (seed " +
              std::to_string(derive_seed(base_seed, i)) + "): " + detail};
    }
  }
  return std::nullopt;
}

}  // namespace crs::fuzz
