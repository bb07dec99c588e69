// Result export: CSV serialisation of profiled windows and campaign
// records, for external analysis/plotting of the reproduced figures.
#pragma once

#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "hid/profiler.hpp"

namespace crs::core {

/// One row per window: every universe feature (named header) plus the
/// ground-truth `injected` flag. Measured (noisy) values.
std::string windows_to_csv(const std::vector<hid::WindowSample>& windows);

/// One row per attempt: attempt, detection_rate, detected, evaded,
/// mutated_after, secret_recovered, host_ipc, attack_windows, variant.
std::string campaign_to_csv(const CampaignResult& result);

/// Reads the whole file at `path`; throws crs::Error on I/O failure.
std::string read_text_file(const std::string& path);

/// Writes `content` to `path`; throws crs::Error on I/O failure.
void write_text_file(const std::string& path, const std::string& content);

/// Appends `content` to `path`, creating it; throws crs::Error on I/O
/// failure.
void append_text_file(const std::string& path, const std::string& content);

/// The run-configuration object every --bench-json reporter embeds as
/// `"config":{...}`: worker-thread count, execution engine, and mitigation
/// preset, all sampled from the process-wide state at emit time so perf
/// records from crsim, crs_matrix and the micro benches stay comparable
/// without each tool re-deriving the context. Pass the serialized
/// mitigation set when one is armed; empty means "none".
std::string bench_config_json(const std::string& mitigations = "");

/// Appends one perf record to `path`, the line the --bench-json reporters
/// share and tools/check_perf_smoke.py reads:
/// `{"name":"<name>","wall_ms":%.3f,"items_per_s":%.3f,"config":{...}}`,
/// the name JSON-escaped, config from bench_config_json(mitigations).
/// Throws crs::Error when the file cannot be written.
void append_bench_record(const std::string& path, const std::string& name,
                         double wall_ms, double items_per_s,
                         const std::string& mitigations = "");

}  // namespace crs::core
