#include "fuzz/golden.hpp"

#include <sstream>
#include <vector>

#include "core/report.hpp"
#include "core/scenario.hpp"
#include "hid/profiler.hpp"
#include "sim/kernel.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "workloads/workloads.hpp"

namespace crs::fuzz {

namespace {

// Small fixed scales: each scenario must run in roughly a second so the
// golden tests stay inside tier-1 budgets, while still producing enough
// windows for a meaningful trace.
constexpr std::uint64_t kGoldenSeed = 7;

std::string benign_csv() {
  sim::Machine machine;
  sim::Kernel kernel(machine);
  workloads::WorkloadOptions opt;
  opt.scale = 4000;
  kernel.register_binary("/bin/w", workloads::build_workload("bitcount", opt));
  hid::ProfilerConfig pcfg;
  pcfg.window_cycles = 5'000;
  const auto result =
      hid::profile_run_strings(kernel, "/bin/w", {"bitcount", "input"}, pcfg);
  return core::windows_to_csv(result.windows);
}

std::string scenario_csv(bool injected) {
  core::ScenarioConfig sc;
  sc.host = "basicmath";
  sc.host_scale = 3000;
  sc.rop_injected = injected;
  if (injected) {
    sc.perturb = true;
    sc.perturb_params.delay = 500;
    sc.perturb_params.loop_count = 10;
  }
  sc.seed = kGoldenSeed;
  sc.profiler.window_cycles = 5'000;
  return core::windows_to_csv(core::run_scenario(sc).profile.windows);
}

/// The text's lines; a final '\n' ends the last line rather than opening
/// an empty one, and empty text has no lines.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines = split(text, '\n');
  if (lines.back().empty()) lines.pop_back();
  return lines;
}

}  // namespace

const std::vector<std::string>& golden_scenario_names() {
  static const std::vector<std::string> kNames = {"benign", "spectre",
                                                  "crspectre"};
  return kNames;
}

std::string golden_csv(const std::string& name) {
  if (name == "benign") return benign_csv();
  if (name == "spectre") return scenario_csv(/*injected=*/false);
  if (name == "crspectre") return scenario_csv(/*injected=*/true);
  throw Error("unknown golden scenario '" + name + "'");
}

std::string diff_csv(const std::string& name, const std::string& golden,
                     const std::string& live) {
  if (golden == live) return {};

  const auto glines = split_lines(golden);
  const auto llines = split_lines(live);
  std::ostringstream out;
  out << "golden-trace mismatch for scenario '" << name << "':\n";
  if (glines.empty() || llines.empty()) {
    out << "  golden has " << glines.size() << " line(s), live has "
        << llines.size() << "\n";
    return out.str();
  }

  const auto header = split(glines[0], ',');
  if (glines[0] != llines[0]) {
    out << "  header changed:\n    golden: " << glines[0]
        << "\n    live:   " << llines[0] << "\n";
    return out.str();
  }
  if (glines.size() != llines.size()) {
    out << "  row count: golden " << glines.size() - 1 << ", live "
        << llines.size() - 1 << " (window count changed)\n";
  }

  int reported = 0;
  const auto rows = std::min(glines.size(), llines.size());
  for (std::size_t r = 1; r < rows && reported < 5; ++r) {
    if (glines[r] == llines[r]) continue;
    const auto gf = split(glines[r], ',');
    const auto lf = split(llines[r], ',');
    out << "  row " << r << ":";
    if (gf.size() != lf.size()) {
      out << " field count " << gf.size() << " vs " << lf.size() << "\n";
      ++reported;
      continue;
    }
    int cols = 0;
    for (std::size_t c = 0; c < gf.size() && cols < 4; ++c) {
      if (gf[c] == lf[c]) continue;
      const auto col = c < header.size() ? header[c] : std::to_string(c);
      out << " [" << col << "] golden=" << gf[c] << " live=" << lf[c];
      ++cols;
    }
    out << "\n";
    ++reported;
  }
  out << "  (regenerate intentionally changed goldens with `crs_fuzz "
         "--update-golden`)\n";
  return out.str();
}

}  // namespace crs::fuzz
