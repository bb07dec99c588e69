#include "core/scenario.hpp"

#include <algorithm>

#include "attack/spectre11.hpp"
#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "rop/chain.hpp"
#include "support/error.hpp"
#include "support/memo.hpp"
#include "support/rng.hpp"

namespace crs::core {

namespace {

constexpr const char* kHostPath = "/bin/host";
constexpr const char* kAttackPath = "/bin/cr_spectre";
constexpr const char* kProbePath = "/bin/layout_probe";
/// Instruction budget for one leak-stage probe run. The scan is bounded
/// (aslr_range/page candidates, 8 canary bytes), so a deterministic cap far
/// above the worst case keeps a broken probe from hanging a campaign.
constexpr std::uint64_t kProbeBudget = 50'000'000;

// Process-wide content-addressed build caches (support/memo.hpp). The
// builds are pure functions of their configs, so concurrent campaigns share
// one artifact per distinct config instead of rebuilding per attempt.
MemoCache<sim::Program>& workload_cache() {
  static MemoCache<sim::Program> cache;
  return cache;
}
MemoCache<sim::Program>& attack_cache() {
  static MemoCache<sim::Program> cache;
  return cache;
}
MemoCache<rop::InjectionPlan>& plan_cache() {
  static MemoCache<rop::InjectionPlan> cache;
  return cache;
}

void hash_perturb(HashBuilder& h, const perturb::PerturbParams& p) {
  h.i64(p.a)
      .i64(p.b)
      .i64(p.loop_count)
      .i64(p.a_step)
      .i64(p.b_step)
      .i64(p.extra_ladders)
      .i64(p.delay)
      .i64(static_cast<int>(p.style))
      .b(p.flushless);
}

std::uint64_t hash_workload(const std::string& host,
                            const workloads::WorkloadOptions& opt) {
  HashBuilder h;
  h.str(host).u64(opt.scale).b(opt.canary).str(opt.secret).u64(opt.link_base);
  return h.digest();
}

std::uint64_t hash_attack_config(const attack::AttackConfig& a) {
  HashBuilder h;
  h.i64(static_cast<int>(a.variant))
      .u64(a.target_secret_address)
      .str(a.embed_secret)
      .u32(a.secret_length)
      .i64(a.train_iterations)
      .i64(static_cast<int>(a.channel))
      .i64(static_cast<int>(a.recovery))
      .u32(a.threshold)
      .i64(a.rounds_per_byte)
      .u32(a.probe_stride)
      .b(a.perturb);
  hash_perturb(h, a.perturb_params);
  h.i64(a.perturb_every)
      .i64(a.perturb_probe_interval)
      .u64(a.link_base)
      .str(a.name);
  return h.digest();
}

std::uint64_t hash_plan_key(const sim::Program& host,
                            const rop::ReconSpec& spec,
                            const std::string& attack_path) {
  HashBuilder h;
  h.u64(sim::hash_program(host));
  h.str(spec.path).str(spec.entry_label).str(spec.body_label);
  h.u64(spec.benign_args.size());
  for (const auto& arg : spec.benign_args) h.str(arg);
  h.u64(spec.max_instructions).str(attack_path);
  return h.digest();
}

std::shared_ptr<const sim::Program> memo_workload(
    const std::string& host, const workloads::WorkloadOptions& opt) {
  return workload_cache().get_or_build(
      hash_workload(host, opt),
      [&] { return workloads::build_workload(host, opt); });
}

std::shared_ptr<const sim::Program> memo_attack(
    const attack::AttackConfig& acfg) {
  return attack_cache().get_or_build(
      hash_attack_config(acfg),
      [&] { return attack::build_attack_binary(acfg); });
}

std::shared_ptr<const rop::InjectionPlan> memo_plan(
    const sim::Program& host, const rop::ReconSpec& spec,
    const std::string& attack_path) {
  return plan_cache().get_or_build(hash_plan_key(host, spec, attack_path), [&] {
    return rop::plan_injection(host, spec, attack_path);
  });
}

/// Mined replay programs (mine/synth.cpp) arrive as assembly text; complete
/// them against the scenario's secret and assemble at the attack link base.
/// Standalone sources are pre-wrapped (they define mine_secret_base/len);
/// injected sources get numeric `.equ`s against the host's resolved secret.
sim::Program build_mined_attack(const ScenarioConfig& config,
                                std::uint64_t secret_address,
                                std::uint64_t link_base) {
  std::string src;
  if (config.rop_injected) {
    src = ".equ mine_secret_len, " + std::to_string(config.secret.size()) +
          "\n.equ mine_secret_base, " + std::to_string(secret_address) + "\n";
  }
  src += config.mined_attack_source;
  src += "\n";
  src += casm::runtime_library();
  return casm::assemble(src,
                        {.name = "mined-attack", .link_base = link_base});
}

std::shared_ptr<const sim::Program> memo_mined_attack(
    const ScenarioConfig& config, std::uint64_t secret_address,
    std::uint64_t link_base) {
  HashBuilder h;
  h.str("mined-attack")
      .str(config.mined_attack_source)
      .b(config.rop_injected)
      .str(config.secret)
      .u64(secret_address)
      .u64(link_base);
  return attack_cache().get_or_build(h.digest(), [&] {
    return build_mined_attack(config, secret_address, link_base);
  });
}

std::shared_ptr<const sim::Program> memo_spectre11(
    const attack::Spectre11Config& scfg) {
  HashBuilder h;
  h.str("spectre11")
      .u64(scfg.target_secret_address)
      .str(scfg.embed_secret)
      .u32(scfg.secret_length)
      .i64(scfg.train_iterations)
      .u64(scfg.link_base)
      .str(scfg.name);
  return attack_cache().get_or_build(
      h.digest(), [&] { return attack::build_spectre11_binary(scfg); });
}

std::shared_ptr<const sim::Program> memo_probe(const sim::Program& victim,
                                               const sim::KernelConfig& kcfg,
                                               bool leak_canary) {
  HashBuilder h;
  h.str("layout-probe")
      .u64(sim::hash_program(victim))
      .b(kcfg.aslr)
      .u64(kcfg.aslr_range)
      .b(leak_canary);
  return attack_cache().get_or_build(h.digest(), [&] {
    return harden::build_probe_binary(
        harden::probe_config_for(victim, kcfg, leak_canary));
  });
}

rop::ReconSpec make_recon_spec(const ScenarioConfig& config) {
  rop::ReconSpec rspec;
  rspec.path = kHostPath;
  rspec.benign_args = {config.host, "recon-benign-input"};
  return rspec;
}

}  // namespace

attack::AttackConfig make_attack_config(const ScenarioConfig& config,
                                        std::uint64_t secret_address) {
  attack::AttackConfig acfg;
  acfg.variant = config.variant;
  acfg.secret_length = static_cast<std::uint32_t>(config.secret.size());
  if (config.rop_injected) {
    acfg.target_secret_address = secret_address;
  } else {
    acfg.embed_secret = config.secret;
  }
  if (config.variant == attack::SpectreVariant::kStride) {
    acfg.probe_stride = 192;
  }
  acfg.perturb = config.perturb;
  acfg.perturb_params = config.perturb_params;
  return acfg;
}

ScenarioSession::ScenarioSession(const ScenarioConfig& config)
    : config_(config) {
  CRS_ENSURE(!config_.secret.empty(), "scenario needs a secret");
  CRS_ENSURE(!config_.leak_stage || config_.rop_injected,
             "leak_stage requires a ROP-injected scenario");
  CRS_ENSURE(!config_.spectre11 || !config_.rop_injected,
             "spectre11 scenarios run standalone");

  // First draw of the per-attempt Rng(seed) stream: the host's work scale.
  // The session pins it to the session seed (run_attempt consumes-and-
  // discards the same draw), so run_scenario(config) and
  // ScenarioSession(config).run_attempt(config.seed) see identical streams.
  Rng rng(config_.seed);
  wopt_.scale =
      config_.host_scale +
      rng.next_below(std::max<std::uint64_t>(config_.host_scale / 8, 1));
  wopt_.canary = config_.canary || config_.harden.canary;
  wopt_.secret = config_.secret;

  if (config_.rop_injected) {
    host_ = memo_workload(config_.host, wopt_);
    secret_address_ = host_->symbol("host_secret");
    // Adversary offline phase (gadgets + recon + payload), against the
    // no-ASLR layout the attacker assumes. Deterministic given host + spec,
    // so memoized — and independent of the attack binary's contents, which
    // is what lets dynamic-perturbation attempts keep the plan.
    plan_ = memo_plan(*host_, make_recon_spec(config_), kAttackPath);
    kcfg_.aslr = config_.aslr;
  }
  config_.mitigations.apply(mcfg_, kcfg_);
  config_.harden.apply(kcfg_);
  if (config_.leak_stage) {
    probe_ = memo_probe(*host_, kcfg_, wopt_.canary);
  }

  // Every session replicates from the process-wide frozen baseline for its
  // machine config in O(metadata) instead of paying a 16 MB private build —
  // the fan-out path campaign/matrix/serve workers share one warm baseline
  // through — and rolls back to that same baseline before every attempt.
  // Kernel construction, arming and binary registration leave the machine
  // untouched, so the fork is the pre-start state.
  auto base = sim::shared_baseline(mcfg_);
  machine_ = std::make_unique<sim::Machine>(*base);
  baseline_.emplace(std::move(base));
  kernel_ = std::make_unique<sim::Kernel>(*machine_, kcfg_);
  armed_ = mitigate::arm(*kernel_, config_.mitigations);
  if (host_) kernel_->register_binary(kHostPath, *host_);
  if (probe_) kernel_->register_binary(kProbePath, *probe_);
  ensure_attack_binary(config_.perturb_params, secret_address_);
}

void ScenarioSession::ensure_attack_binary(
    const perturb::PerturbParams& params, std::uint64_t target_address) {
  if (attack_ && params == attack_params_ && target_address == attack_target_)
    return;
  ScenarioConfig cfg = config_;
  cfg.perturb_params = params;
  if (config_.spectre11) {
    attack::Spectre11Config scfg;
    scfg.embed_secret = config_.secret;
    scfg.secret_length = static_cast<std::uint32_t>(config_.secret.size());
    attack_ = memo_spectre11(scfg);
  } else if (!config_.mined_attack_source.empty()) {
    attack_ = memo_mined_attack(config_, target_address,
                                make_attack_config(cfg, target_address)
                                    .link_base);
  } else {
    attack_ = memo_attack(make_attack_config(cfg, target_address));
  }
  attack_params_ = params;
  attack_target_ = target_address;
  kernel_->register_binary(kAttackPath, *attack_);
}

ScenarioRun ScenarioSession::run_attempt(std::uint64_t seed) {
  return run_attempt(seed, config_.perturb_params);
}

ScenarioRun ScenarioSession::run_attempt(std::uint64_t seed,
                                         const perturb::PerturbParams& params) {
  ++attempts_;

  // Per-attempt jitter, reproducing run_scenario's Rng(seed) stream: the
  // scale draw was consumed at session construction, the sampling phase and
  // noise seed vary per attempt like back-to-back measurements.
  Rng rng(seed);
  (void)rng.next_below(std::max<std::uint64_t>(config_.host_scale / 8, 1));
  hid::ProfilerConfig prof = config_.profiler;
  prof.window_cycles +=
      rng.next_below(std::max<std::uint64_t>(prof.window_cycles / 10, 1));
  prof.noise_seed = rng.next_u64();

  machine_->restore(*baseline_);

  ScenarioRun out;
  const std::uint64_t kernel_seed =
      seed ^ (config_.rop_injected ? 0x5A5Aull : 0xABCDull);
  std::uint64_t attack_target = secret_address_;
  std::vector<std::uint8_t> payload_bytes;
  if (config_.rop_injected) payload_bytes = plan_->payload.bytes;

  if (config_.rop_injected && config_.leak_stage) {
    // --- leak pass: same kernel seed ⇒ the loader replays the exact
    // stack/image/canary draws of the exploit pass, but the entry point is
    // hijacked to the speculative probe (argv lengths match the exploit's,
    // so the marshalled stack pointer matches too).
    kernel_->reset_for_attempt(kernel_seed);
    std::vector<std::vector<std::uint8_t>> pargs;
    pargs.emplace_back(config_.host.begin(), config_.host.end());
    pargs.push_back(plan_->payload.bytes);
    kernel_->start_probe(kHostPath, kProbePath, pargs);
    if (kernel_->run(kProbeBudget) == sim::StopReason::kHalted) {
      out.leak = harden::parse_probe_output(kernel_->output());
      out.leak_stage_ran = true;
      rop::LeakAdjust adj;
      if (out.leak.found_base) adj.image_delta = out.leak.base_delta;
      adj.stack_delta = out.leak.stack_pointer - plan_->frame.start_sp;
      adj.patch_canary = wopt_.canary;
      adj.canary = out.leak.canary;
      payload_bytes = rop::patch_payload_for_leak(
                          plan_->payload, plan_->frame.filler_length, adj)
                          .bytes;
      attack_target = secret_address_ + adj.image_delta;
    }
    // Roll the dirtied machine back for the exploit pass.
    machine_->restore(*baseline_);
  }

  ensure_attack_binary(params, attack_target);
  kernel_->reset_for_attempt(kernel_seed);
  // A fresh arm() starts with zero fence-pass stats every attempt; the
  // session's long-lived hook must look the same to summarize().
  *armed_.fence_stats = mitigate::FencePassStats{};

  if (!config_.rop_injected) {
    // Standalone ("traditional") Spectre: the attack binary runs directly.
    out.profile =
        hid::profile_run_strings(*kernel_, kAttackPath, {"cr_spectre"}, prof);
    out.attack_windows = out.profile.windows;  // the whole run is attack
    out.attack_launched = true;
    out.recovered = out.profile.output;
    out.secret_recovered = out.recovered == config_.secret;
    out.host_ipc = 0.0;
    out.mitigation = mitigate::summarize(*machine_, *kernel_, armed_);
    out.harden = harden::summarize(*kernel_, config_.harden);
    return out;
  }

  // --- CR-Spectre: ROP-injected into the host ---
  std::vector<std::vector<std::uint8_t>> args;
  args.emplace_back(config_.host.begin(), config_.host.end());
  args.push_back(payload_bytes);
  out.profile = hid::profile_run(*kernel_, kHostPath, args, prof);

  // Ground-truth split. Sized up front; the samples are trivially copyable
  // (std::array deltas), so the moved-from originals in profile.windows
  // stay intact for callers that read them (golden traces, trace export).
  std::size_t n_attack = 0;
  for (const auto& w : out.profile.windows) n_attack += w.injected ? 1 : 0;
  out.attack_windows.reserve(n_attack);
  out.host_windows.reserve(out.profile.windows.size() - n_attack);
  for (auto& w : out.profile.windows) {
    (w.injected ? out.attack_windows : out.host_windows).push_back(
        std::move(w));
  }
  out.attack_launched = kernel_->execve_count() > 0;
  out.recovered = out.profile.output;
  out.secret_recovered = out.recovered == config_.secret;

  // IPC from the noiseless deltas: Table I's ~1% contrasts would otherwise
  // drown in measurement noise.
  std::uint64_t host_instr = 0, host_cycles = 0;
  for (const auto& w : out.host_windows) {
    host_instr +=
        w.true_delta[static_cast<std::size_t>(sim::Event::kInstructions)];
    host_cycles += w.true_delta[static_cast<std::size_t>(sim::Event::kCycles)];
  }
  out.host_ipc = host_cycles == 0
                     ? 0.0
                     : static_cast<double>(host_instr) /
                           static_cast<double>(host_cycles);
  out.mitigation = mitigate::summarize(*machine_, *kernel_, armed_);
  out.harden = harden::summarize(*kernel_, config_.harden);
  return out;
}

ScenarioRun run_scenario(const ScenarioConfig& config) {
  ScenarioSession session(config);
  return session.run_attempt(config.seed);
}

std::uint64_t hash_scenario_config(const ScenarioConfig& c) {
  HashBuilder h;
  h.str(c.host).u64(c.host_scale).str(c.secret);
  h.i64(static_cast<int>(c.variant)).b(c.rop_injected).b(c.perturb);
  h.str(c.mined_attack_source);
  hash_perturb(h, c.perturb_params);
  h.b(c.canary).b(c.aslr);
  h.b(c.harden.aslr).b(c.harden.canary).b(c.harden.heap_guard);
  h.b(c.leak_stage).b(c.spectre11);
  const mitigate::MitigationConfig& m = c.mitigations;
  h.b(m.fence_bounds)
      .b(m.slh)
      .b(m.retpoline)
      .b(m.flush_predictors)
      .b(m.flush_l1)
      .b(m.partition_cache)
      .b(m.ward_split);
  h.u64(c.seed);
  const hid::ProfilerConfig& p = c.profiler;
  h.u64(p.window_cycles)
      .u64(p.max_windows)
      .u64(p.max_instructions)
      .f64(p.noise_sigma)
      .f64(p.background_intensity)
      .u64(p.noise_seed);
  return h.digest();
}

namespace {
// Per-thread override for the session-cache size (0 = default). Each live
// session holds its setup artifacts and a fork that privately owns only the
// pages its attempts dirty, so the default stays small for campaign
// drivers; serve shards raise it to their routed-config count.
thread_local std::size_t session_cache_capacity = 0;
}  // namespace

void set_session_cache_capacity(std::size_t capacity) {
  session_cache_capacity = capacity;
}

ScenarioSession& thread_session(const ScenarioConfig& config) {
  // Campaign drivers key sessions per cell, and a thread rarely interleaves
  // more than a few cells; the serve shards override this per worker.
  const std::size_t capacity =
      std::max<std::size_t>(1, session_cache_capacity != 0
                                   ? session_cache_capacity
                                   : 4);
  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t last_use = 0;
    std::unique_ptr<ScenarioSession> session;
  };
  thread_local std::vector<Entry> cache;
  thread_local std::uint64_t tick = 0;

  const std::uint64_t key = hash_scenario_config(config);
  ++tick;
  for (Entry& e : cache) {
    if (e.key == key) {
      e.last_use = tick;
      return *e.session;
    }
  }
  // Evict down to capacity - 1 (more than one when capacity was lowered
  // mid-thread) to make room for the new session.
  while (cache.size() >= capacity) {
    cache.erase(std::min_element(
        cache.begin(), cache.end(),
        [](const Entry& a, const Entry& b) { return a.last_use < b.last_use; }));
  }
  cache.push_back(
      Entry{key, tick, std::make_unique<ScenarioSession>(config)});
  return *cache.back().session;
}

void warm_scenario_memo(const ScenarioConfig& config) {
  // Constructing a session builds the host/plan/attack artifacts through
  // the memo caches as a side effect; the throwaway machine is the price of
  // keeping exactly one build path.
  ScenarioSession warm(config);
}

ScenarioMemoStats scenario_memo_stats() {
  ScenarioMemoStats out;
  out.workload_hits = workload_cache().hits();
  out.workload_misses = workload_cache().misses();
  out.attack_hits = attack_cache().hits();
  out.attack_misses = attack_cache().misses();
  out.plan_hits = plan_cache().hits();
  out.plan_misses = plan_cache().misses();
  return out;
}

}  // namespace crs::core
