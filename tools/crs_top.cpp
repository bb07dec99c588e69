// crs_top — `top` for the simulator: a live metrics table over a running
// campaign.
//
//   crs_top [--attempts N] [--windows W] [--seed S] [--threads N]
//           [--online] [--dynamic] [--interval-ms M] [--once]
//           [--metrics <out.csv>]
//
// A background thread builds the training corpora and runs an attack
// campaign; the foreground thread re-renders the metrics registry every
// --interval-ms until the campaign finishes, then prints the final table.
// --once skips the live loop and prints only the final state — the mode CI
// and scripts use. --metrics additionally writes the final registry CSV.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.hpp"
#include "core/corpus.hpp"
#include "core/report.hpp"
#include "hid/features.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/flags.hpp"
#include "support/parallel.hpp"
#include "support/table.hpp"

namespace {

using namespace crs;

struct Options {
  int attempts = 6;
  std::size_t windows = 48;
  std::uint64_t seed = 5;
  unsigned threads = 0;
  bool online = false;
  bool dynamic = false;
  int interval_ms = 500;
  bool once = false;
  std::string metrics_path;
};

int usage() {
  std::fprintf(stderr,
               "usage: crs_top [--attempts N] [--windows W] [--seed S]\n"
               "               [--threads N] [--online] [--dynamic]\n"
               "               [--interval-ms M] [--once] "
               "[--metrics <out.csv>]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Options& opt) {
  FlagCursor args(argc, argv);
  while (args.more()) {
    if (args.take_number("--attempts", opt.attempts)) {
    } else if (args.take_number("--windows", opt.windows)) {
    } else if (args.take_number("--seed", opt.seed)) {
    } else if (args.take_number("--threads", opt.threads)) {
    } else if (args.take_number("--interval-ms", opt.interval_ms)) {
    } else if (args.take_value("--metrics", opt.metrics_path)) {
    } else if (args.take("--online")) {
      opt.online = true;
    } else if (args.take("--dynamic")) {
      opt.dynamic = true;
    } else if (args.take("--once")) {
      opt.once = true;
    } else {
      args.unknown();
    }
  }
  return opt.attempts > 0 && opt.windows > 0 && opt.interval_ms > 0;
}

std::string render_registry() {
  Table table({"metric", "kind", "field", "value"});
  for (const auto& row : obs::MetricsRegistry::instance().rows()) {
    table.add_row({row.name, row.kind, row.field, row.value});
  }
  return table.render();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse_args(argc, argv, opt)) return usage();
    if (opt.threads != 0) set_thread_override(opt.threads);
  } catch (const Error& e) {
    std::fprintf(stderr, "crs_top: %s\n", e.what());
    return usage();
  }

  std::atomic<bool> done{false};
  std::exception_ptr failure;
  core::CampaignResult result;

  // The campaign thread touches only the registry's atomics; the renderer
  // reads them through rows(), so concurrent rendering is safe.
  std::thread campaign([&] {
    try {
      core::CorpusConfig cc;
      cc.windows_per_class = opt.windows;
      cc.host_scale = 300;
      cc.seed = opt.seed ^ 0xC0FFEE;
      const auto benign = core::build_benign_corpus(cc);
      const auto attack = core::build_attack_corpus(cc);

      core::CampaignConfig cfg;
      cfg.detector.classifier = "MLP";
      cfg.detector.features = hid::paper_feature_indices();
      cfg.attempts = opt.attempts;
      cfg.seed = opt.seed;
      cfg.online_hid = opt.online;
      cfg.dynamic_perturbation = opt.dynamic;
      cfg.scenario.rop_injected = true;
      cfg.scenario.perturb = opt.dynamic;
      result = core::run_campaign(cfg, benign, attack);
    } catch (...) {
      failure = std::current_exception();
    }
    done.store(true, std::memory_order_release);
  });

  while (!opt.once && !done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.interval_ms));
    std::printf("\n=== crs_top (campaign running) ===\n%s",
                render_registry().c_str());
    std::fflush(stdout);
  }
  campaign.join();

  try {
    if (failure) std::rethrow_exception(failure);
  } catch (const Error& e) {
    std::fprintf(stderr, "crs_top: campaign failed: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crs_top: campaign failed: %s\n", e.what());
    return 1;
  }

  std::printf("\n=== crs_top (final) ===\n%s", render_registry().c_str());
  std::printf(
      "campaign: %d attempts, mean detection %.3f, evasion fraction %.3f\n",
      opt.attempts, result.mean_detection(), result.evasion_fraction());
  if (!opt.metrics_path.empty()) {
    core::write_text_file(opt.metrics_path,
                          obs::MetricsRegistry::instance().csv());
    std::printf("wrote %zu metrics to %s\n",
                obs::MetricsRegistry::instance().size(),
                opt.metrics_path.c_str());
  }
  return 0;
}
