// trace_export — dump HPC window traces as CSV for external analysis.
//
//   trace_export benign <workload> <scale> <out.csv>
//   trace_export spectre <pht|rsb|stride|btb> <out.csv>
//   trace_export crspectre <host> <scale> <out.csv>   (injected + perturbed)
//   trace_export --golden <benign|spectre|crspectre> <ref.csv>
//   trace_export --update-golden [dir]
//   trace_export --chrome <benign|spectre|crspectre> <out.json>
//
// `--chrome` re-runs a golden scenario with structured tracing enabled and
// writes the merged Chrome trace_event JSON (chrome://tracing / Perfetto).
//
// Rows carry every universe feature (measured, i.e. noisy) plus the
// ground-truth `injected` flag. `--golden` re-runs the canonical small-scale
// scenario and diffs it against a checked-in reference CSV;
// `--update-golden` regenerates all references (default dir: tests/golden).
#include <cstdio>
#include <filesystem>
#include <string>

#include "core/report.hpp"
#include "fuzz/golden.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"
#include "support/flags.hpp"
#include "core/scenario.hpp"
#include "hid/profiler.hpp"
#include "sim/kernel.hpp"
#include "workloads/workloads.hpp"

#ifndef CRS_GOLDEN_DIR
#define CRS_GOLDEN_DIR "tests/golden"
#endif

namespace {

using namespace crs;

int usage() {
  std::fprintf(stderr,
               "usage: trace_export benign <workload> <scale> <out.csv>\n"
               "       trace_export spectre <pht|rsb|stride|btb> <out.csv>\n"
               "       trace_export crspectre <host> <scale> <out.csv>\n"
               "       trace_export --golden <benign|spectre|crspectre> "
               "<ref.csv>\n"
               "       trace_export --update-golden [dir]\n"
               "       trace_export --chrome <benign|spectre|crspectre> "
               "<out.json>\n");
  return 2;
}

int golden_compare(const std::string& name, const std::string& ref_path) {
  const auto live = fuzz::golden_csv(name);
  const auto golden = fuzz::read_text_file(ref_path);
  const auto diff = fuzz::diff_csv(name, golden, live);
  if (diff.empty()) {
    std::printf("golden '%s' matches %s\n", name.c_str(), ref_path.c_str());
    return 0;
  }
  std::fputs(diff.c_str(), stderr);
  return 1;
}

int golden_update(const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (const auto& name : fuzz::golden_scenario_names()) {
    const auto path = dir + "/" + name + ".csv";
    core::write_text_file(path, fuzz::golden_csv(name));
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

attack::SpectreVariant parse_variant(const std::string& name) {
  if (name == "pht") return attack::SpectreVariant::kPht;
  if (name == "rsb") return attack::SpectreVariant::kRsb;
  if (name == "stride") return attack::SpectreVariant::kStride;
  if (name == "btb") return attack::SpectreVariant::kBtb;
  throw Error("unknown variant '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace crs;
  try {
    FlagCursor args(argc, argv);
    if (!args.more()) return usage();

    std::string value;
    if (args.take_value("--golden", value)) {
      if (!args.more()) return usage();
      const std::string ref = args.take_positional();
      if (args.more()) return usage();
      return golden_compare(value, ref);
    }
    if (args.take("--update-golden")) {
      const std::string dir =
          args.more() ? args.take_positional() : CRS_GOLDEN_DIR;
      if (args.more()) return usage();
      return golden_update(dir);
    }
    if (args.take_value("--chrome", value)) {
      if (!args.more()) return usage();
      const std::string out = args.take_positional();
      if (args.more()) return usage();
      obs::set_tracing_enabled(true);
      fuzz::golden_csv(value);  // runs the canonical scenario, traced
      obs::set_tracing_enabled(false);
      auto& sink = obs::TraceSink::instance();
      core::write_text_file(out, sink.chrome_json());
      std::printf("wrote %zu trace events to %s\n", sink.event_count(),
                  out.c_str());
      return 0;
    }
    if (args.more_flags()) args.unknown();

    const std::string mode = args.take_positional();
    std::vector<hid::WindowSample> windows;
    std::string out_path;

    if (mode == "benign") {
      if (argc != 5) return usage();
      const std::string name = args.take_positional();
      const auto scale =
          parse_number<std::uint64_t>("scale", args.take_positional());
      out_path = args.take_positional();
      if (!workloads::is_known_workload(name)) {
        throw Error("unknown workload '" + name + "'");
      }
      sim::Machine machine;
      sim::Kernel kernel(machine);
      workloads::WorkloadOptions opt;
      opt.scale = scale;
      kernel.register_binary("/bin/w", workloads::build_workload(name, opt));
      windows =
          hid::profile_run_strings(kernel, "/bin/w", {name, "input"}, {})
              .windows;
    } else if (mode == "spectre") {
      if (argc != 4) return usage();
      const std::string variant = args.take_positional();
      out_path = args.take_positional();
      core::ScenarioConfig sc;
      sc.rop_injected = false;
      sc.variant = parse_variant(variant);
      windows = core::run_scenario(sc).profile.windows;
    } else if (mode == "crspectre") {
      if (argc != 5) return usage();
      core::ScenarioConfig sc;
      sc.host = args.take_positional();
      sc.host_scale =
          parse_number<std::uint64_t>("scale", args.take_positional());
      out_path = args.take_positional();
      sc.rop_injected = true;
      sc.perturb = true;
      sc.perturb_params.delay = 1000;
      sc.perturb_params.loop_count = 16;
      windows = core::run_scenario(sc).profile.windows;
    } else {
      return usage();
    }

    core::write_text_file(out_path, core::windows_to_csv(windows));
    std::printf("wrote %zu windows to %s\n", windows.size(), out_path.c_str());
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "trace_export: %s\n", e.what());
    return 1;
  }
}
