#include "replay.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "attack/spectre.hpp"
#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "harden/probe.hpp"
#include "hid/profiler.hpp"
#include "layers.hpp"
#include "mitigate/fence_pass.hpp"
#include "rop/plan.hpp"
#include "sim/block_cache.hpp"
#include "support/rng.hpp"
#include "workloads/workloads.hpp"

namespace crbench {

using namespace crs;

namespace {

// The paths and recon arguments ScenarioSession uses (core/scenario.cpp).
constexpr const char* kHostPath = "/bin/host";
constexpr const char* kAttackPath = "/bin/cr_spectre";

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

/// The host build options a session derives from its config (first Rng
/// draw of the session seed is the host's work scale).
workloads::WorkloadOptions session_options(const core::ScenarioConfig& c) {
  Rng rng(c.seed);
  workloads::WorkloadOptions wopt;
  wopt.scale = c.host_scale +
               rng.next_below(std::max<std::uint64_t>(c.host_scale / 8, 1));
  wopt.canary = c.canary || c.harden.canary;
  wopt.secret = c.secret;
  return wopt;
}

/// The kernel config a session derives from its config.
sim::KernelConfig session_kernel(const core::ScenarioConfig& c,
                                 sim::MachineConfig& mcfg) {
  sim::KernelConfig kcfg;
  if (c.rop_injected) kcfg.aslr = c.aslr;
  c.mitigations.apply(mcfg, kcfg);
  c.harden.apply(kcfg);
  return kcfg;
}

/// A machine set up the way ScenarioSession::build_machine sets it up,
/// with the snapshot its first attempt takes.
struct Rig {
  std::unique_ptr<sim::Machine> machine;
  std::unique_ptr<sim::Kernel> kernel;
  mitigate::Armed armed;
  std::optional<sim::MachineSnapshot> snap;
};

}  // namespace

bool replayable(const core::ScenarioConfig& config) {
  return !config.leak_stage && !config.spectre11 &&
         config.mined_attack_source.empty();
}

AttemptRef make_ref(const std::string& label,
                    const core::ScenarioConfig& session_config,
                    std::uint64_t attempt_seed,
                    const perturb::PerturbParams& params,
                    const core::ScenarioRun& run, bool warm) {
  AttemptRef ref;
  ref.label = label;
  ref.config = session_config;
  ref.attempt_seed = attempt_seed;
  ref.params = params;
  ref.cycles = run.profile.cycles;
  ref.instructions = run.profile.instructions;
  ref.windows = run.profile.windows.size();
  ref.recovered = run.recovered;
  ref.warm = warm;
  return ref;
}

AttemptRef reference_attempt(const std::string& label,
                             const core::ScenarioConfig& config,
                             std::uint64_t attempt_seed,
                             core::ScenarioRun* run_out) {
  auto session = timed("core.session_ms", [&] {
    return std::make_unique<core::ScenarioSession>(config);
  });
  core::ScenarioRun run = timed(
      "core.attempt_ms", [&] { return session->run_attempt(attempt_seed); });
  AttemptRef ref =
      make_ref(label, config, attempt_seed, config.perturb_params, run, false);
  if (run_out != nullptr) *run_out = std::move(run);
  return ref;
}

void time_probe_build(const core::ScenarioConfig& c) {
  const workloads::WorkloadOptions wopt = session_options(c);
  const sim::Program host = workloads::build_workload(c.host, wopt);
  sim::MachineConfig mcfg;
  const sim::KernelConfig kcfg = session_kernel(c, mcfg);
  timed("harden.probe_build_ms", [&] {
    return harden::build_probe_binary(
        harden::probe_config_for(host, kcfg, wopt.canary));
  });
}

bool replay_attempt(const AttemptRef& ref, Report& report) {
  const core::ScenarioConfig& c = ref.config;
  // Stage timings are held back until the replay has proven itself.
  std::vector<std::pair<std::string, double>> pending;
  const auto stage = [&](const std::string& key, auto&& fn) {
    Scoped span(key, ref.attempt_seed);
    const auto t0 = Clock::now();
    auto result = fn();
    pending.emplace_back(key, elapsed_ms(t0));
    return result;
  };
  const auto mismatch = [&](const std::string& what) {
    report.check(false, "replay " + ref.label + ": " + what);
    report.info("replay " + ref.label + " NOT used: " + what);
    return false;
  };

  // Host build and ROP plan, as the session does them.
  const workloads::WorkloadOptions wopt = session_options(c);

  std::optional<sim::Program> host;
  std::optional<rop::InjectionPlan> plan;
  std::uint64_t secret_address = 0;
  if (c.rop_injected) {
    host = stage("workloads.build_ms",
                 [&] { return workloads::build_workload(c.host, wopt); });
    const std::string src =
        workloads::generate_workload_source(c.host, wopt) +
        casm::runtime_library();
    casm::AssembleOptions aopt;
    aopt.name = c.host;
    aopt.link_base = wopt.link_base;
    const sim::Program again =
        stage("casm.assemble_ms", [&] { return casm::assemble(src, aopt); });
    if (sim::hash_program(again) != sim::hash_program(*host)) {
      return mismatch("host assembly differs from build_workload");
    }
    secret_address = host->symbol("host_secret");
    rop::ReconSpec rspec;
    rspec.path = kHostPath;
    rspec.benign_args = {c.host, "recon-benign-input"};
    plan = stage("rop.plan_ms", [&] {
      return rop::plan_injection(*host, rspec, kAttackPath);
    });
  }

  core::ScenarioConfig variant = c;
  variant.perturb_params = ref.params;
  const attack::AttackConfig acfg =
      core::make_attack_config(variant, secret_address);
  const sim::Program atk = stage(
      "attack.build_ms", [&] { return attack::build_attack_binary(acfg); });
  {
    const std::string src =
        attack::generate_attack_source(acfg) + casm::runtime_library();
    casm::AssembleOptions aopt;
    aopt.name = acfg.name;
    aopt.link_base = acfg.link_base;
    const sim::Program again =
        stage("casm.assemble_ms", [&] { return casm::assemble(src, aopt); });
    if (sim::hash_program(again) != sim::hash_program(atk)) {
      return mismatch("attack assembly differs from build_attack_binary");
    }
  }

  // Per-attempt jitter, reproducing run_attempt's Rng(seed) stream.
  Rng arng(ref.attempt_seed);
  (void)arng.next_below(std::max<std::uint64_t>(c.host_scale / 8, 1));
  hid::ProfilerConfig prof = c.profiler;
  prof.window_cycles +=
      arng.next_below(std::max<std::uint64_t>(prof.window_cycles / 10, 1));
  prof.noise_seed = arng.next_u64();
  const std::uint64_t kernel_seed =
      ref.attempt_seed ^ (c.rop_injected ? 0x5A5Aull : 0xABCDull);

  std::string path = kAttackPath;
  std::vector<std::vector<std::uint8_t>> args{bytes_of("cr_spectre")};
  if (c.rop_injected) {
    path = kHostPath;
    args = {bytes_of(c.host), plan->payload.bytes};
  }

  // Machine, kernel and defenses, replicated from the shared baseline. Each
  // measured pass gets its own fork in the cache state the reference ran
  // in: the session's first attempt runs on a fresh fork, a later one after
  // a restore, which keeps the decode and block caches warm.
  sim::MachineConfig mcfg;
  const sim::KernelConfig kcfg = session_kernel(c, mcfg);
  const auto base = sim::shared_baseline(mcfg);
  double restored_pages = 0.0;
  const auto unprofiled = [&](Rig& rig) {
    rig.kernel->reset_for_attempt(kernel_seed);
    rig.kernel->start(path, args);
    return rig.kernel->run(prof.max_instructions);
  };
  const auto restore = [&](Rig& rig) {
    stage("sim.replicate_us", [&] {
      rig.machine->restore(*rig.snap);
      return 0;
    });
    restored_pages = static_cast<double>(rig.snap->last_restored_pages());
  };
  const auto make_rig = [&] {
    auto rig = std::make_unique<Rig>();
    rig->machine = stage("sim.replicate_us", [&] {
      return std::make_unique<sim::Machine>(*base);
    });
    rig->kernel = std::make_unique<sim::Kernel>(*rig->machine, kcfg);
    // Held for the rig's life: the kernel's load hook reports into it.
    rig->armed = mitigate::arm(*rig->kernel, c.mitigations);
    if (host) rig->kernel->register_binary(kHostPath, *host);
    rig->kernel->register_binary(kAttackPath, atk);
    rig->snap.emplace(rig->machine->snapshot());
    if (ref.warm) {
      unprofiled(*rig);
      restore(*rig);
    }
    return rig;
  };

  // The attempt as run_attempt runs it, under the profiler; the block-cache
  // statistics come from this pass.
  const auto prof_rig = make_rig();
  const sim::BlockCache* bc = prof_rig->machine->cpu().block_cache();
  const sim::BlockCacheStats b0 = bc ? bc->stats() : sim::BlockCacheStats{};
  prof_rig->kernel->reset_for_attempt(kernel_seed);
  const hid::ProfileResult profiled = stage("hid.profile_ms", [&] {
    return hid::profile_run(*prof_rig->kernel, path, args, prof);
  });
  const sim::BlockCacheStats b1 = bc ? bc->stats() : sim::BlockCacheStats{};
  if (profiled.cycles != ref.cycles ||
      profiled.instructions != ref.instructions ||
      profiled.windows.size() != ref.windows ||
      profiled.output != ref.recovered) {
    return mismatch(fmt("profiled replay gave %llu cycles / %llu instr / %zu "
                        "windows, run_attempt gave %llu / %llu / %zu",
                        static_cast<unsigned long long>(profiled.cycles),
                        static_cast<unsigned long long>(profiled.instructions),
                        profiled.windows.size(),
                        static_cast<unsigned long long>(ref.cycles),
                        static_cast<unsigned long long>(ref.instructions),
                        ref.windows));
  }

  // The same attempt with no profiler, on its own fork in the same cache
  // state: the simulator's own cost.
  const auto exec_rig = make_rig();
  sim::Machine& machine = *exec_rig->machine;
  exec_rig->kernel->reset_for_attempt(kernel_seed);
  exec_rig->kernel->start(path, args);
  const std::uint64_t c0 = machine.cpu().cycle();
  const std::uint64_t i0 = machine.cpu().retired();
  stage("sim.exec_ms",
        [&] { return exec_rig->kernel->run(prof.max_instructions); });
  const std::uint64_t exec_cycles = machine.cpu().cycle() - c0;
  const std::uint64_t exec_instr = machine.cpu().retired() - i0;
  if (exec_cycles != ref.cycles || exec_instr != ref.instructions ||
      exec_rig->kernel->output_string() != ref.recovered) {
    return mismatch("unprofiled re-execution diverged from the profiled run");
  }
  // Rolling the attempt back is what the session pays before its next one.
  restore(*exec_rig);

  // The fence pass the armed load hook runs over this attempt's images.
  if (c.mitigations.fence_bounds) {
    std::vector<const sim::Program*> images{&atk};
    if (host) images.push_back(&*host);
    for (const sim::Program* image : images) {
      sim::Program fenced = *image;
      stage("mitigate.fence_pass_ms",
            [&] { return mitigate::insert_bounds_fences(fenced); });
    }
  }

  for (const auto& [key, ms] : pending) samples().add(key, ms);
  double exec_ms = 0.0, profile_ms = 0.0;
  for (const auto& [key, ms] : pending) {
    if (key == "sim.exec_ms") exec_ms = ms;
    if (key == "hid.profile_ms") profile_ms = ms;
  }
  samples().add("sim.instructions", static_cast<double>(exec_instr));
  samples().add("sim.cycles", static_cast<double>(exec_cycles));
  samples().add("sim.minstr_per_s",
                static_cast<double>(exec_instr) / (exec_ms * 1e3));
  samples().add("sim.restored_pages", restored_pages);
  const double hits = static_cast<double>(b1.hits - b0.hits);
  const double built =
      static_cast<double>((b1.translations - b0.translations) +
                          (b1.retranslations - b0.retranslations));
  if (hits + built > 0) {
    samples().add("sim.block_hit_ratio", hits / (hits + built));
  }
  samples().add("hid.windows", static_cast<double>(profiled.windows.size()));
  samples().add("hid.window_overhead_frac",
                (profile_ms - exec_ms) / profile_ms);
  report.check(true, "replay " + ref.label);
  report.info(fmt("replay %-28s ok (%s): %llu cycles, %llu instr, %zu "
                  "windows, exec %.2f ms, profiled %.2f ms",
                  ref.label.c_str(), ref.warm ? "warm" : "cold",
                  static_cast<unsigned long long>(ref.cycles),
                  static_cast<unsigned long long>(ref.instructions),
                  ref.windows, exec_ms, profile_ms));
  return true;
}

}  // namespace crbench
