// crbench: the repository's end-to-end benchmark.
//
//   crbench --workload campaign|defense-grid|serve-mixed --seed N
//           --seconds S --trace 0|1 [--tiny] [--plant-fault]
//           [--trace-out PATH]
//
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics. Human-readable lines (metric sample counts, oracle
// verdicts, the deterministic digest) come first; the last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "layers.hpp"
#include "workloads.hpp"

namespace {

using namespace crbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "crbench: %s\nusage: crbench --workload "
               "campaign|defense-grid|serve-mixed --seed N --seconds S "
               "--trace 0|1 [--tiny] [--plant-fault] [--trace-out PATH]\n",
               why);
  std::exit(2);
}

RunOptions parse(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage((a + " needs a value").c_str());
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(value().c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--plant-fault") {
      o.plant_fault = true;
    } else if (a == "--cold-pass") {
      o.cold_pass = std::atoi(value().c_str());
    } else if (a == "--trace-out") {
      o.trace_path = value();
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload != "campaign" && o.workload != "defense-grid" &&
      o.workload != "serve-mixed") {
    usage("unknown --workload");
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  char exe[4096] = {0};
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  o.self_exe = n > 0 ? std::string(exe, static_cast<std::size_t>(n)) : argv[0];
  return o;
}

double finite(double v) { return std::isfinite(v) ? v : 0.0; }

void print(const Report& r) {
  std::printf("== crbench %s seed=%llu %s ==\n", r.workload.c_str(),
              static_cast<unsigned long long>(r.seed),
              r.trace ? "traced (per-layer metrics)" : "untraced (end-to-end)");
  for (const std::string& line : r.info_lines) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("-- digest (deterministic outputs) --\n");
  for (const std::string& line : r.digest_lines) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("-- metrics --\n");
  for (const auto& [name, m] : r.metrics) {
    std::printf("%-30s %16.6f %-9s n=%-6zu %s\n", name.c_str(),
                finite(m.value), m.unit.c_str(), m.samples, m.note.c_str());
  }
  std::printf("failed_frac %.6f (%llu failed of %llu attempted)\n",
              r.attempted ? static_cast<double>(r.failed) /
                                static_cast<double>(r.attempted)
                          : 0.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  for (const std::string& f : r.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += r.failed == 0 ? "true" : "false";
  const std::uint64_t attempted = std::max<std::uint64_t>(1, r.attempted);
  json += fmt(", \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    json += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), finite(m.value),
                m.unit.c_str());
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const RunOptions o = parse(argc, argv);
  try {
    if (o.cold_pass >= 0) return run_grid_cold_pass(o);

    Report report;
    report.workload = o.workload;
    report.seed = o.seed;
    report.trace = o.trace;
    Tracer::instance().set_enabled(o.trace);
    const double t0 = now_s();
    if (o.workload == "campaign") {
      run_campaign_workload(o, report);
    } else if (o.workload == "defense-grid") {
      run_grid_workload(o, report);
    } else {
      run_serve_workload(o, report);
    }

    if (o.trace) {
      // A traced run reports the per-layer metrics only, so the workload's
      // end-to-end values are dropped here.
      const std::vector<std::string> census = run_census(o, report);
      Report layers;
      fold_layers(layers, census);
      report.metrics = layers.metrics;
      std::string filled = "layer census filled:";
      for (const std::string& k : census) filled += " " + k;
      report.info(filled);
      // Self time per span name and per layer (the name's first component),
      // largest first, with each one's share of all self time. Spans on
      // concurrent threads add up, so these are shares of busy time.
      const double t1 = now_s();
      const auto self = self_time_ms(Tracer::instance().spans());
      std::map<std::string, double> by_layer;
      double total_ms = 0.0;
      for (const auto& [name, ms] : self) {
        by_layer[name.substr(0, name.find('.'))] += ms;
        total_ms += ms;
      }
      report.info(fmt("traced wall %.3f s; self time %.3f s", t1 - t0,
                      total_ms / 1e3));
      const auto share = [&](double ms) {
        return total_ms > 0 ? 100.0 * ms / total_ms : 0.0;
      };
      std::vector<std::pair<double, std::string>> order;
      for (const auto& [name, ms] : by_layer) order.emplace_back(ms, name);
      std::sort(order.rbegin(), order.rend());
      report.info("self time by layer:");
      for (const auto& [ms, name] : order) {
        report.info(fmt("  %-30s %10.3f ms %5.1f%%", name.c_str(), ms,
                        share(ms)));
      }
      order.clear();
      for (const auto& [name, ms] : self) order.emplace_back(ms, name);
      std::sort(order.rbegin(), order.rend());
      report.info("self time by span:");
      for (const auto& [ms, name] : order) {
        report.info(fmt("  %-30s %10.3f ms %5.1f%%", name.c_str(), ms,
                        share(ms)));
      }
      if (!o.trace_path.empty()) Tracer::instance().write(o.trace_path);
    } else {
      report.set("peak_rss_mb", peak_rss_mb(), "MB", 1,
                 "peak resident set of the workload process");
    }
    print(report);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crbench: %s\n", e.what());
    return 1;
  }
}
