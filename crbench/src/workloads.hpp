// The three workloads. Each fills `report` with its end-to-end metrics
// (untraced) or its per-layer samples (traced), its oracle verdicts and its
// deterministic digest.
#pragma once

#include <vector>

#include "common.hpp"
#include "core/job.hpp"
#include "replay.hpp"

namespace crs::serve {
class Client;
}

namespace crbench {

void run_campaign_workload(const RunOptions& options, Report& report);
void run_grid_workload(const RunOptions& options, Report& report);
void run_serve_workload(const RunOptions& options, Report& report);

/// defense-grid child process: one pass in a fresh process; prints the
/// pass's wall seconds on stdout.
int run_grid_cold_pass(const RunOptions& options);

/// Fills every per-layer sample the workload's own traffic left empty with
/// a small call into that layer; returns the sample keys it filled.
std::vector<std::string> run_census(const RunOptions& options, Report& report);

/// Times the first sim::shared_baseline call for each machine config a
/// workload is about to use (traced runs only).
void time_first_baselines(
    const std::vector<crs::core::ScenarioConfig>& configs);

/// Seed for item `index` of a workload whose seed argument is `seed`.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t index);

/// One PING until its PONG, in milliseconds.
double ping_ms(crs::serve::Client& client);

/// serialize_job + parse_job + encode_frame + FrameDecoder for one spec, in
/// milliseconds; negative when the round trip loses the spec.
double codec_ms(const crs::core::JobSpec& spec);

}  // namespace crbench
