#include "core/scenario.hpp"

#include <algorithm>
#include <utility>
#include <variant>

#include "attack/spectre11.hpp"
#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "obs/obs.hpp"
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

using WorkloadKey = std::pair<std::string, workloads::WorkloadOptions>;

/// Inputs of plan_injection; the host program is a pure function of
/// (host, options), which stand in for it.
struct PlanKey {
  std::string host;
  workloads::WorkloadOptions options;
  rop::ReconSpec spec;
  std::string attack_path;

  auto operator<=>(const PlanKey&) const = default;
};

/// Inputs of a mined attack build (build_mined_attack). The build reads
/// only the secret's length; keying the whole secret keeps one entry per
/// scenario secret, as scenario_memo_stats counts them.
struct MinedAttackKey {
  std::string source;
  bool rop_injected = false;
  std::string secret;
  std::uint64_t secret_address = 0;
  std::uint64_t link_base = 0;

  auto operator<=>(const MinedAttackKey&) const = default;
};

/// Inputs of a layout probe build: what probe_config_for reads, with
/// (host, options) standing in for the victim program.
struct ProbeKey {
  std::string host;
  workloads::WorkloadOptions options;
  bool aslr = false;
  std::uint64_t aslr_range = 0;
  bool leak_canary = false;

  auto operator<=>(const ProbeKey&) const = default;
};

/// Every attack-side binary a session runs, keyed by its kind and inputs.
using AttackKey = std::variant<attack::AttackConfig, MinedAttackKey,
                               attack::Spectre11Config, ProbeKey>;

// Process-wide build caches (support/memo.hpp). The builds are pure
// functions of their keys, so concurrent campaigns share one artifact per
// distinct input instead of rebuilding per attempt. Each holds at most
// kScenarioMemoCapacity entries.
LruCache<WorkloadKey, const sim::Program>& workload_cache() {
  static LruCache<WorkloadKey, const sim::Program> cache(
      kScenarioMemoCapacity);
  return cache;
}
LruCache<AttackKey, const sim::Program>& attack_cache() {
  static LruCache<AttackKey, const sim::Program> cache(kScenarioMemoCapacity);
  return cache;
}
LruCache<PlanKey, const rop::InjectionPlan>& plan_cache() {
  static LruCache<PlanKey, const rop::InjectionPlan> cache(
      kScenarioMemoCapacity);
  return cache;
}

/// Mined replay programs (mine/synth.cpp) arrive as assembly text; complete
/// them against the scenario's secret and assemble at the attack link base.
/// Standalone sources are pre-wrapped (they define mine_secret_base/len);
/// injected sources get numeric `.equ`s against the host's resolved secret.
sim::Program build_mined_attack(const MinedAttackKey& key) {
  std::string src;
  if (key.rop_injected) {
    src = ".equ mine_secret_len, " + std::to_string(key.secret.size()) +
          "\n.equ mine_secret_base, " + std::to_string(key.secret_address) +
          "\n";
  }
  src += key.source;
  src += "\n";
  src += casm::runtime_library();
  return casm::assemble(src,
                        {.name = "mined-attack", .link_base = key.link_base});
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
    host_ = workload_cache().get_or_build({config_.host, wopt_}, [&] {
      return workloads::build_workload(config_.host, wopt_);
    });
    secret_address_ = host_->symbol("host_secret");
    // Adversary offline phase (gadgets + recon + payload), against the
    // no-ASLR layout the attacker assumes. Deterministic given host + spec,
    // so memoized — and independent of the attack binary's contents, which
    // is what lets dynamic-perturbation attempts keep the plan.
    const rop::ReconSpec rspec = make_recon_spec(config_);
    plan_ = plan_cache().get_or_build(
        {config_.host, wopt_, rspec, kAttackPath},
        [&] { return rop::plan_injection(*host_, rspec, kAttackPath); });
    kcfg_.aslr = config_.aslr;
  }
  config_.mitigations.apply(mcfg_, kcfg_);
  config_.harden.apply(kcfg_);
  if (config_.leak_stage) {
    probe_ = attack_cache().get_or_build(
        ProbeKey{config_.host, wopt_, kcfg_.aslr, kcfg_.aslr_range,
                 wopt_.canary},
        [&] {
          return harden::build_probe_binary(
              harden::probe_config_for(*host_, kcfg_, wopt_.canary));
        });
  }

  // Runs known to read their kernel seed up front: layout randomisation
  // draws at load, and the leak stage's probe runs before the watched run
  // starts. The kernel reports every other dependence during the run.
  seed_dependent_ = kcfg_.randomizes_layout() || config_.leak_stage;

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
    attack_ = attack_cache().get_or_build(
        scfg, [&] { return attack::build_spectre11_binary(scfg); });
  } else if (!config_.mined_attack_source.empty()) {
    const MinedAttackKey key{config_.mined_attack_source,
                             config_.rop_injected, config_.secret,
                             target_address,
                             make_attack_config(cfg, target_address).link_base};
    attack_ = attack_cache().get_or_build(
        key, [&] { return build_mined_attack(key); });
  } else {
    const attack::AttackConfig acfg = make_attack_config(cfg, target_address);
    attack_ = attack_cache().get_or_build(
        acfg, [&] { return attack::build_attack_binary(acfg); });
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
  ScenarioRun run = std::move(run_attempts({&seed, 1}, params).front());
  hid::record_run_metrics(run.profile);
  return run;
}

bool ScenarioSession::shares_runs() const {
  return !seed_dependent_ && !obs::tracing_enabled();
}

hid::ProfilerConfig ScenarioSession::attempt_profiler(
    std::uint64_t seed) const {
  // Per-attempt jitter, reproducing run_scenario's Rng(seed) stream: the
  // scale draw was consumed at session construction, the sampling phase and
  // noise seed vary per attempt like back-to-back measurements.
  Rng rng(seed);
  (void)rng.next_below(std::max<std::uint64_t>(config_.host_scale / 8, 1));
  hid::ProfilerConfig prof = config_.profiler;
  prof.window_cycles +=
      rng.next_below(std::max<std::uint64_t>(prof.window_cycles / 10, 1));
  prof.noise_seed = rng.next_u64();
  return prof;
}

std::vector<ScenarioRun> ScenarioSession::run_attempts(
    std::span<const std::uint64_t> seeds,
    const perturb::PerturbParams& params) {
  CRS_ENSURE(!seeds.empty(), "run_attempts needs at least one seed");
  std::vector<hid::ProfilerConfig> profs;
  const std::size_t streams =
      shares_runs() ? std::min(seeds.size(), kMaxSharedAttempts) : 1;
  for (const std::uint64_t seed : seeds.first(streams)) {
    profs.push_back(attempt_profiler(seed));
  }

  machine_->restore(*baseline_);

  // The execution runs under the first seed's kernel seed, so the first
  // attempt is always exact; the other streams are served only if the run
  // never read its seed.
  const std::uint64_t kernel_seed =
      seeds.front() ^ (config_.rop_injected ? 0x5A5Aull : 0xABCDull);
  std::uint64_t attack_target = secret_address_;
  std::vector<std::uint8_t> payload_bytes;
  if (config_.rop_injected) payload_bytes = plan_->payload.bytes;
  bool leak_stage_ran = false;
  harden::ProbeLeak leak;

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
      leak = harden::parse_probe_output(kernel_->output());
      leak_stage_ran = true;
      rop::LeakAdjust adj;
      if (leak.found_base) adj.image_delta = leak.base_delta;
      adj.stack_delta = leak.stack_pointer - plan_->frame.start_sp;
      adj.patch_canary = wopt_.canary;
      adj.canary = leak.canary;
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

  // Standalone ("traditional") Spectre runs the attack binary directly;
  // CR-Spectre is ROP-injected into the host.
  const std::string argv0 = config_.rop_injected ? config_.host : "cr_spectre";
  std::vector<std::vector<std::uint8_t>> args;
  args.emplace_back(argv0.begin(), argv0.end());
  if (config_.rop_injected) args.push_back(std::move(payload_bytes));
  std::vector<hid::ProfileResult> profiles = hid::profile_runs(
      *kernel_, config_.rop_injected ? kHostPath : kAttackPath, args, profs);

  // What the execution did is common to every attempt it serves.
  const bool launched =
      !config_.rop_injected || kernel_->execve_count() > 0;
  const mitigate::MitigationSummary mitigation =
      mitigate::summarize(*machine_, *kernel_, armed_);
  const harden::HardenSummary hardening =
      harden::summarize(*kernel_, config_.harden);

  std::vector<ScenarioRun> runs(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    ScenarioRun& out = runs[i];
    out.profile = std::move(profiles[i]);
    out.attack_launched = launched;
    out.recovered = out.profile.output;
    out.secret_recovered = out.recovered == config_.secret;
    out.mitigation = mitigation;
    out.harden = hardening;
    out.leak_stage_ran = leak_stage_ran;
    out.leak = leak;
    if (!config_.rop_injected) {
      out.attack_windows = out.profile.windows;  // the whole run is attack
      continue;
    }

    // Ground-truth split. Sized up front; the samples are trivially
    // copyable (std::array deltas), so the moved-from originals in
    // profile.windows stay intact for callers that read them (golden
    // traces, trace export).
    std::size_t n_attack = 0;
    for (const auto& w : out.profile.windows) n_attack += w.injected ? 1 : 0;
    out.attack_windows.reserve(n_attack);
    out.host_windows.reserve(out.profile.windows.size() - n_attack);
    for (auto& w : out.profile.windows) {
      (w.injected ? out.attack_windows : out.host_windows)
          .push_back(std::move(w));
    }

    // IPC from the noiseless deltas: Table I's ~1% contrasts would
    // otherwise drown in measurement noise.
    std::uint64_t host_instr = 0, host_cycles = 0;
    for (const auto& w : out.host_windows) {
      host_instr +=
          w.true_delta[static_cast<std::size_t>(sim::Event::kInstructions)];
      host_cycles +=
          w.true_delta[static_cast<std::size_t>(sim::Event::kCycles)];
    }
    out.host_ipc = host_cycles == 0
                       ? 0.0
                       : static_cast<double>(host_instr) /
                             static_cast<double>(host_cycles);
  }
  attempts_ += runs.size();
  return runs;
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
  const perturb::PerturbParams& pp = c.perturb_params;
  h.i64(pp.a)
      .i64(pp.b)
      .i64(pp.loop_count)
      .i64(pp.a_step)
      .i64(pp.b_step)
      .i64(pp.extra_ladders)
      .i64(pp.delay)
      .i64(static_cast<int>(pp.style))
      .b(pp.flushless);
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
/// Sessions a thread keeps live unless set_session_cache_capacity says
/// otherwise. Each live session holds its setup artifacts and a fork that
/// privately owns only the pages its attempts dirty, so the default stays
/// small for campaign drivers, which rarely interleave more than a few
/// cells on one thread; serve shards raise it to their routed-config count.
constexpr std::size_t kDefaultSessionCacheCapacity = 4;

LruCache<ScenarioConfig, ScenarioSession>& session_cache() {
  thread_local LruCache<ScenarioConfig, ScenarioSession> cache(
      kDefaultSessionCacheCapacity);
  return cache;
}
}  // namespace

void set_session_cache_capacity(std::size_t capacity) {
  session_cache().set_capacity(capacity != 0 ? capacity
                                             : kDefaultSessionCacheCapacity);
}

ScenarioSession& thread_session(const ScenarioConfig& config) {
  return *session_cache().get_or_build(
      config, [&] { return std::make_unique<ScenarioSession>(config); });
}

bool warm_scenario_memo(const ScenarioConfig& config) {
  // Constructing a session builds the host/plan/attack artifacts through
  // the memo caches as a side effect; the throwaway machine is the price of
  // keeping exactly one build path.
  const ScenarioSession warm(config);
  return warm.shares_runs();
}

ScenarioMemoStats scenario_memo_stats() {
  ScenarioMemoStats out;
  out.workload_hits = workload_cache().hits();
  out.workload_misses = workload_cache().misses();
  out.attack_hits = attack_cache().hits();
  out.attack_misses = attack_cache().misses();
  out.plan_hits = plan_cache().hits();
  out.plan_misses = plan_cache().misses();
  out.workload_size = workload_cache().size();
  out.attack_size = attack_cache().size();
  out.plan_size = plan_cache().size();
  return out;
}

}  // namespace crs::core
