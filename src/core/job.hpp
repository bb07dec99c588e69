// The request/response job abstraction over the batch entry points.
//
// Every driver so far (crsim, crs_matrix, crs_fuzz, the figure benches) is
// a batch CLI that links the library and calls run_scenario / run_campaign
// / run_defense_matrix directly. The campaign service (src/serve) needs the
// same work behind a wire boundary, which requires three things this module
// provides:
//
//   * a self-contained, text-serializable JobSpec covering the scenario,
//     campaign, defense-matrix and raw-program entry points (parse is
//     strict: any unknown key, bad enum or truncated section throws
//     crs::Error, so garbage off the wire can never half-configure a job);
//   * run_job: one function executing any JobSpec and returning a payload
//     that is BYTE-IDENTICAL to what the corresponding batch path emits for
//     the same config + seed (matrix payload == matrix_csv == the bytes
//     `crs_matrix --csv` writes; campaign payload == campaign_to_csv;
//     scenario/program payloads are canonicalized here and shared by
//     `crs_serve --oneshot`, the batch twin of the served path). Progress
//     (attempt counters, leak count so far) streams through a callback
//     whose return value implements cooperative cancellation;
//   * job_affinity_key: the cache-affinity routing hash — jobs whose
//     simulated machines share a configuration (hash_machine_config) and
//     build artifacts land on the same worker shard, where the per-thread
//     session cache already holds a warm session.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/campaign.hpp"
#include "core/defense_matrix.hpp"
#include "core/scenario.hpp"

namespace crs::core {

enum class JobKind { kScenario, kCampaign, kMatrix, kProgram };

std::string job_kind_name(JobKind kind);

/// Scenario job: `attempts` session attempts of one ScenarioConfig.
/// Attempt i runs with seed `config.seed + i`, so attempt 0 of any scenario
/// job is bit-identical to run_scenario(config).
struct ScenarioJob {
  ScenarioConfig config;
  int attempts = 1;
};

/// Largest training corpus a job spec may request, in windows per class:
/// 10x the paper's 2000-window corpus (§III-A). Corpus construction has no
/// cancellation point, so parse_job rejects anything larger (and 0) rather
/// than let one spec pin a shard and grow its memory without bound.
inline constexpr std::size_t kMaxJobCorpusWindows = 20000;

/// Largest per-cell attempt count and overhead-probe repeat count a matrix
/// job spec may request (parse_job rejects anything larger, and 0). A
/// matrix job can only be cancelled before or after the whole sweep, so an
/// unbounded count would pin a shard for as long as the sender likes. 1000
/// attempts is 250x the default; 100 repeats is the paper's Table I
/// averaging.
inline constexpr int kMaxJobMatrixAttempts = 1000;
inline constexpr int kMaxJobOverheadRepeats = 100;

/// Largest attempt count a scenario or campaign job spec may request
/// (parse_job rejects anything larger). Each attempt adds a payload row or
/// a record that lives until the job ends, and an offline campaign reports
/// nothing until all of its attempts have run, so an unbounded count would
/// let one spec grow a shard's memory without bound. 100000 is 10^4 times
/// the paper's ten attempts per campaign.
inline constexpr int kMaxJobAttempts = 100'000;

/// Campaign job: run_campaign over corpora built deterministically from the
/// spec (the same construction the figure benches use).
struct CampaignJob {
  CampaignConfig config;
  std::size_t corpus_windows = 60;
  std::uint64_t corpus_seed = 99;
};

struct MatrixJob {
  DefenseMatrixConfig config;
};

/// Raw-program job: assemble `source` (runtime library appended) and run it
/// on a default machine — the wire-protocol twin of one differential-fuzz
/// execution, used by `crs_fuzz --fuzz-serve`.
struct ProgramJob {
  std::string source;
  bool writable_text = false;  ///< lift DEP for self-modifying programs
  std::uint64_t max_instructions = 2'000'000;
};

struct JobSpec {
  JobKind kind = JobKind::kScenario;
  /// Client-assigned id echoed in every response frame (not part of the
  /// work: two specs differing only in id produce identical payloads).
  std::uint64_t id = 0;
  ScenarioJob scenario;
  CampaignJob campaign;
  MatrixJob matrix;
  ProgramJob program;
};

/// Canonical text form (key=value lines; doubles printed with %.17g so the
/// parse is value-exact). serialize(parse(serialize(s))) == serialize(s).
/// Throws crs::Error naming the key when a spec has no text that reads
/// back as itself (a line value holding '\n', or a list item that is empty
/// or holds ','), or when no run can execute it (an empty secret,
/// leak_stage without rop_injected, spectre11 with rop_injected).
std::string serialize_job(const JobSpec& spec);

/// Strict inverse of serialize_job; throws crs::Error on anything
/// malformed (unknown key, missing kind, bad enum name, truncated source)
/// or unrunnable (as serialize_job refuses it).
JobSpec parse_job(const std::string& text);

struct JobProgress {
  std::uint64_t done = 0;    ///< attempts (or cells/chunks) completed
  std::uint64_t total = 0;   ///< planned attempts; 0 when open-ended
  std::uint64_t leaks = 0;   ///< secrets recovered so far
  std::uint64_t sim_cycles = 0;  ///< simulated cycles consumed so far
};

/// Called after every unit of progress, serially, from the thread running
/// the job. Return false to cancel: the job stops at the next boundary and
/// its payload is discarded.
using JobProgressFn = std::function<bool(const JobProgress&)>;

struct JobOutcome {
  bool cancelled = false;
  /// Empty when cancelled; otherwise the batch-identical result bytes.
  std::string payload;
  JobProgress progress;  ///< final counters (also valid when cancelled)
};

/// Executes the spec on the calling thread. Uses the per-thread session
/// cache (thread_session), so repeated same-config jobs on one shard hit
/// warm sessions; results are identical for any CRS_THREADS and shard
/// placement (the batch determinism contract).
JobOutcome run_job(const JobSpec& spec, const JobProgressFn& on_progress = {});

/// Shard-routing hash: mixes hash_machine_config of the machine the job
/// will simulate with the scenario/session identity (or program bytes), so
/// same-config jobs collide and land on a shard whose session cache is
/// already warm for them. It only routes: distinct jobs whose keys collide
/// share a shard, never a session.
std::uint64_t job_affinity_key(const JobSpec& spec);

}  // namespace crs::core
