// Golden-trace regression layer: canonical small-scale scenario runs whose
// windowed HPC CSVs are checked into tests/golden/ and diffed against live
// runs. An intentional behaviour change regenerates the files
// (`crs_fuzz --update-golden`) and shows up in review as a file diff
// instead of silent drift.
#pragma once

#include <string>
#include <vector>

namespace crs::fuzz {

/// Canonical scenario names, in a stable order: "benign", "spectre",
/// "crspectre".
const std::vector<std::string>& golden_scenario_names();

/// Runs the canonical scenario deterministically and returns its window CSV
/// (core::windows_to_csv format). Throws crs::Error for unknown names.
std::string golden_csv(const std::string& name);

/// Readable row/column-level diff between two window CSVs; "" when equal.
/// `name` labels the scenario in the report.
std::string diff_csv(const std::string& name, const std::string& golden,
                     const std::string& live);

}  // namespace crs::fuzz
