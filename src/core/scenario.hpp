// One attack execution ("attempt") end to end.
//
// A scenario describes everything about a single run: the host and its
// work scale, the planted secret, the Spectre variant, whether the attack
// launches standalone (the paper's "traditional Spectre", Figs 5a/6a) or is
// ROP-injected into the host (CR-Spectre, Figs 5b/6b), the perturbation
// variant, active defenses, and a seed that jitters the measurement (host
// input, window phase) the way real back-to-back runs differ.
//
// run_scenario performs the whole pipeline: build binaries, plan the
// injection (gadget scan + frame recon + payload), execute under the
// windowed profiler, split windows by ground truth, and verify whether the
// secret was actually exfiltrated.
//
// ScenarioSession is how every attempt runs (DESIGN.md §10): it pays the
// pipeline's setup — memoized workload build, ROP recon + gadget planning
// and attack-binary assembly, plus an O(metadata) fork of the shared
// pre-start machine baseline — once, and then serves each run_attempt() by
// rolling the machine back to that baseline instead of rebuilding the
// world. The attempt-level RNG stream is reproduced exactly, so
// `run_scenario(config)` and `ScenarioSession(config).run_attempt(config.seed)`
// are bit-identical — for the session's first attempt or any later one.
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "attack/spectre.hpp"
#include "harden/config.hpp"
#include "harden/probe.hpp"
#include "hid/profiler.hpp"
#include "mitigate/config.hpp"
#include "perturb/perturb.hpp"
#include "rop/plan.hpp"
#include "sim/snapshot.hpp"
#include "workloads/workloads.hpp"

namespace crs::core {

struct ScenarioConfig {
  std::string host = "basicmath";
  /// Sized so the host's own work is comparable to the injected attack's
  /// duration (the realistic cloak: the whitelisted process spends most of
  /// its time doing its real job).
  std::uint64_t host_scale = 20000;
  std::string secret = "CRSPECTRE-SECRET";  // 16 bytes

  attack::SpectreVariant variant = attack::SpectreVariant::kPht;
  bool rop_injected = true;   ///< false = standalone attack binary

  /// Non-empty: use this mined replay program (mine::synthesize_attack_source
  /// output) as the attack binary instead of the built-in generator. The
  /// source must reference `mine_secret_base`/`mine_secret_len`; standalone
  /// configs carry the wrapped form (mine::wrap_attack_standalone), injected
  /// configs carry the raw form and the session prepends numeric `.equ`s for
  /// the host's resolved secret address.
  std::string mined_attack_source;
  bool perturb = false;
  perturb::PerturbParams perturb_params;

  bool canary = false;
  bool aslr = false;

  /// Host hardening layers (src/harden: ASLR incl. stack, canary, guarded
  /// heap). Composes with the legacy `canary`/`aslr` booleans — the
  /// effective setting is the OR — and lowers onto the kernel config the
  /// same way mitigations do.
  harden::HardenConfig harden;
  /// Speculative leak stage (ROP-injected scenarios only): before the
  /// exploit run, the attacker gets one probe execution against the
  /// byte-identical randomized layout (same attempt seed ⇒ same loader
  /// draws) that leaks the image base delta, the canary value and the stack
  /// pointer through the transient channel; the payload and the attack
  /// binary's secret address are then patched with the leaked values. This
  /// is the paper's defense-awareness applied to host hardening.
  bool leak_stage = false;
  /// Standalone only: run the Spectre 1.1 speculative-store-overflow attack
  /// binary (attack/spectre11.hpp) instead of the classic variant generator.
  bool spectre11 = false;

  /// Active speculative-execution defenses (all off by default — the
  /// paper's undefended baseline).
  mitigate::MitigationConfig mitigations;

  /// Jitters host input length, window phase and host scale so repeated
  /// attempts produce naturally varying traces (paper §III-B1).
  std::uint64_t seed = 1;

  hid::ProfilerConfig profiler;

  /// Orders sessions in thread_session's cache. The profiler's doubles make
  /// this a partial order, so they must never be NaN (crs-job v1 refuses
  /// non-finite values); -0.0 and 0.0 compare equal and profile alike.
  auto operator<=>(const ScenarioConfig&) const = default;
};

struct ScenarioRun {
  hid::ProfileResult profile;
  /// Ground-truth split of profile.windows.
  std::vector<hid::WindowSample> attack_windows;
  std::vector<hid::WindowSample> host_windows;

  bool attack_launched = false;   ///< execve fired (or standalone ran)
  bool secret_recovered = false;  ///< exfiltrated output == secret
  std::string recovered;

  /// IPC over the host's own (non-injected) windows — the Table I metric.
  double host_ipc = 0.0;

  /// What the armed mitigations did during this run (all zero when
  /// config.mitigations is empty).
  mitigate::MitigationSummary mitigation;

  /// What the hardening layers observed (all zero when config.harden is
  /// empty; masked by the configured layers, like `mitigation`).
  harden::HardenSummary harden;
  /// Leak-stage results (set only when config.leak_stage ran the probe).
  bool leak_stage_ran = false;
  harden::ProbeLeak leak;
};

/// Reusable execution context for repeated attempts of one scenario.
/// Construction runs the full setup pipeline (host workload, ROP
/// recon/plan, attack binary — all through the process-wide build
/// caches — plus a fork of sim::shared_baseline for the machine config,
/// kernel construction and mitigation arming); each run rolls the machine
/// back to that baseline via Machine::restore and re-seeds the kernel,
/// making attempt N bit-identical to a fresh run_scenario with the same
/// attempt seed and session scale.
///
/// A session's attempts differ only in how they are measured (window phase
/// and PMU noise), not in what executes, unless the run reads its kernel
/// seed. run_attempts exploits that: one simulated execution, sampled by
/// one profiler stream per seed, serves every attempt whose run cannot
/// depend on its seed.
///
/// Not thread-safe: one session belongs to one thread (see thread_session).
class ScenarioSession {
 public:
  /// Most attempts one run_attempts execution serves.
  static constexpr std::size_t kMaxSharedAttempts = 16;

  explicit ScenarioSession(const ScenarioConfig& config);
  ScenarioSession(const ScenarioSession&) = delete;
  ScenarioSession& operator=(const ScenarioSession&) = delete;

  /// One attempt with the scenario's configured perturbation parameters.
  /// `seed` drives the per-attempt jitter (profiler phase/noise) and the
  /// kernel RNG exactly as run_scenario's config.seed does; the host work
  /// scale stays pinned to the session seed.
  ScenarioRun run_attempt(std::uint64_t seed);

  /// One attempt under mutated perturbation parameters (the dynamic
  /// campaign's moving target). Only the attack binary differs, and its
  /// rebuild goes through the memo cache; host, plan and machine baseline
  /// are reused as-is (the ROP plan does not depend on the attack binary).
  ScenarioRun run_attempt(std::uint64_t seed,
                          const perturb::PerturbParams& params);

  /// Attempts for `seeds` (non-empty) under `params`, from one simulated
  /// execution under seeds[0]'s kernel seed (hid::profile_runs). Returns
  /// the runs of a non-empty prefix of `seeds`, each bit-identical to
  /// run_attempt(seed, params): seeds[0] always, and each later seed up to
  /// the first the execution could not serve, because the run turned out
  /// seed-dependent (sim::Kernel::seed_dependent) or that seed's stream
  /// stopped at its own max_windows. Callers run the rest in later calls.
  /// The execution is sampled for at most kMaxSharedAttempts seeds (every
  /// stream holds its windows until the run ends, and callers report
  /// progress per call), and for seeds[0] only when !shares_runs().
  ///
  /// The runs come back without their hid.profiler.* run metrics: the
  /// caller records each run it uses with hid::record_run_metrics
  /// (run.profile), as run_attempt does, so a run it drops unused (an
  /// online campaign's held runs on a mutation) counts nowhere.
  std::vector<ScenarioRun> run_attempts(std::span<const std::uint64_t> seeds,
                                        const perturb::PerturbParams& params);

  /// False when run_attempts serves one seed per call: every run of the
  /// session reads its seed before its first window closes (layout
  /// randomisation, sim::KernelConfig::randomizes_layout, or the leak
  /// stage, whose probe runs before the watched run), or obs tracing is
  /// on, where attempts run one per call so trace contents match a solo
  /// run's. The kernel reports any other dependence (a canary read,
  /// getrandom) during the shared run, which then serves seeds[0] alone.
  bool shares_runs() const;

  const ScenarioConfig& config() const { return config_; }
  /// The kernel config the session's runs use (the scenario's ASLR,
  /// mitigations and hardening applied).
  const sim::KernelConfig& kernel_config() const { return kcfg_; }
  /// Attempts served so far.
  std::uint64_t attempts() const { return attempts_; }

 private:
  void ensure_attack_binary(const perturb::PerturbParams& params,
                            std::uint64_t target_address);
  /// Per-attempt jitter: the profiler settings of attempt `seed`.
  hid::ProfilerConfig attempt_profiler(std::uint64_t seed) const;

  ScenarioConfig config_;
  workloads::WorkloadOptions wopt_;
  std::shared_ptr<const sim::Program> host_;        // null when standalone
  std::shared_ptr<const rop::InjectionPlan> plan_;  // null when standalone
  std::shared_ptr<const sim::Program> attack_;
  std::shared_ptr<const sim::Program> probe_;       // leak-stage only
  perturb::PerturbParams attack_params_;
  std::uint64_t secret_address_ = 0;
  std::uint64_t attack_target_ = 0;
  sim::MachineConfig mcfg_;
  sim::KernelConfig kcfg_;
  std::unique_ptr<sim::Machine> machine_;
  std::unique_ptr<sim::Kernel> kernel_;
  mitigate::Armed armed_;
  std::optional<sim::MachineSnapshot> baseline_;  // the pre-start machine
  bool seed_dependent_ = false;  // every run reads its seed (shares_runs)
  std::uint64_t attempts_ = 0;
};

ScenarioRun run_scenario(const ScenarioConfig& config);

/// The attack binary a scenario would use (exposed for inspection/tests).
attack::AttackConfig make_attack_config(const ScenarioConfig& config,
                                        std::uint64_t secret_address);

/// FNV-1a digest over every ScenarioConfig field, for shard routing
/// (job_affinity_key). It decides no cache hit: a collision costs routing
/// quality, never a wrong result.
std::uint64_t hash_scenario_config(const ScenarioConfig& config);

/// Bounded per-thread session cache: returns a live session for `config`
/// (constructing one on first use), evicting the least-recently-used entry
/// beyond a small capacity. Sessions are found by comparing whole configs.
/// Campaign drivers call this from worker threads; because a session's
/// behaviour is a pure function of its config, results are identical for
/// any CRS_THREADS. The reference stays valid until a later call on this
/// thread evicts the session.
ScenarioSession& thread_session(const ScenarioConfig& config);

/// Sets the calling thread's session-cache capacity (0 = the default, 4).
/// Worker shards of the campaign service raise it so a shard can keep every
/// config routed to it warm; campaign drivers keep the small default.
/// Lowering it evicts down at once.
void set_session_cache_capacity(std::size_t capacity);

/// Populates the workload/plan/attack memo caches for `config` on the
/// calling thread. Campaign drivers warm the caches once on the main thread
/// before fanning out, so build work — and any trace events the builds
/// emit — happens deterministically regardless of worker scheduling.
/// Returns shares_runs() of the session the warm-up constructs, so the
/// caller learns whether a config's attempts share runs without building a
/// second session.
bool warm_scenario_memo(const ScenarioConfig& config);

/// Entries each scenario-level memo (workload, attack binary, ROP plan)
/// holds, least recently used evicted. A constant, so fresh-seed traffic,
/// whose every session draws a new host scale, cannot grow the caches; a
/// session keeps its own artifacts alive past their eviction.
inline constexpr std::size_t kScenarioMemoCapacity = 64;

/// Hit/miss counters and live entries of the scenario-level memo caches
/// (process-wide).
struct ScenarioMemoStats {
  std::uint64_t workload_hits = 0;
  std::uint64_t workload_misses = 0;
  std::uint64_t attack_hits = 0;
  std::uint64_t attack_misses = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::size_t workload_size = 0;  ///< at most kScenarioMemoCapacity
  std::size_t attack_size = 0;    ///< at most kScenarioMemoCapacity
  std::size_t plan_size = 0;      ///< at most kScenarioMemoCapacity
};
ScenarioMemoStats scenario_memo_stats();

}  // namespace crs::core
