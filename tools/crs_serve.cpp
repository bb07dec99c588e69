// crs_serve — the long-lived campaign service.
//
//   crs_serve [--port N | --unix <path>] [--shards N] [--queue N]
//             [--affinity on|off] [--session-cache N] [--threads N]
//             [--metrics <out.csv>]
//
//     Listens for length-prefixed job frames (see src/serve/protocol.hpp),
//     runs scenario/campaign/matrix/program jobs on N worker shards with
//     bounded queues and cache-affine routing, streams progress frames and
//     returns results byte-identical to the batch CLIs. Runs until SIGINT /
//     SIGTERM or a client SHUTDOWN frame, then drains in-flight jobs and
//     exits, printing the admission tallies.
//
//   crs_serve --oneshot <jobspec-file|->
//
//     The batch twin of the served path: reads one job-spec text (as
//     carried by a SUBMIT frame; `-` = stdin), runs it in-process with no
//     sockets, and writes the result payload to stdout. A job served over
//     the wire and the same spec run through --oneshot produce identical
//     bytes — tests/test_serve.cpp holds the proof.
//
//   crs_serve --example scenario|campaign|matrix
//
//     Prints a default job spec of that kind (a template for hand-written
//     submissions and the docs).
//
//   crs_serve --help
//
//     Prints usage to stdout and exits 0.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/flags.hpp"
#include "support/parallel.hpp"

namespace {

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int) { g_signal = 1; }

/// The whole of `path`, or of stdin when `path` is `-`.
std::string read_file_or_stdin(const std::string& path) {
  if (path != "-") return crs::core::read_text_file(path);
  std::ostringstream ss;
  ss << std::cin.rdbuf();
  return ss.str();
}

/// `--help` is a success, not a usage error: print to stdout, exit 0.
int help() {
  std::fputs(
      "usage: crs_serve [--port N | --unix <path>] [--shards N] [--queue N]\n"
      "                 [--affinity on|off] [--session-cache N] [--threads N]\n"
      "                 [--metrics <out.csv>]\n"
      "       crs_serve --oneshot <jobspec-file|->\n"
      "       crs_serve --example scenario|campaign|matrix\n"
      "       crs_serve --help\n",
      stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace crs;
  try {
    serve::ServeConfig config;
    std::string oneshot_path;
    std::string example_kind;
    std::string metrics_path;
    std::string value;

    FlagCursor args(argc, argv);
    while (args.more()) {
      unsigned threads = 0;
      if (args.take_value("--oneshot", oneshot_path)) {
      } else if (args.take_value("--example", example_kind)) {
      } else if (args.take_number("--port", config.tcp_port)) {
      } else if (args.take_value("--unix", config.unix_path)) {
      } else if (args.take_number("--shards", config.shards)) {
      } else if (args.take_number("--queue", config.queue_capacity)) {
      } else if (args.take_value("--affinity", value)) {
        config.affinity = parse_on_off("--affinity", value);
      } else if (args.take_number("--session-cache",
                                  config.session_cache_capacity)) {
      } else if (args.take_number("--threads", threads)) {
        set_thread_override(threads);
      } else if (args.take_value("--metrics", metrics_path)) {
      } else if (args.take("--help")) {
        return help();
      } else {
        args.unknown();
      }
    }

    if (!example_kind.empty()) {
      core::JobSpec spec;
      if (example_kind == "scenario") {
        spec.kind = core::JobKind::kScenario;
      } else if (example_kind == "campaign") {
        spec.kind = core::JobKind::kCampaign;
      } else if (example_kind == "matrix") {
        spec.kind = core::JobKind::kMatrix;
        spec.matrix.config.quick = true;
      } else {
        throw Error("--example wants scenario, campaign or matrix, got '" +
                    example_kind + "'");
      }
      std::fputs(core::serialize_job(spec).c_str(), stdout);
      return 0;
    }

    if (!oneshot_path.empty()) {
      const core::JobSpec spec =
          core::parse_job(read_file_or_stdin(oneshot_path));
      const core::JobOutcome outcome = core::run_job(spec);
      std::fwrite(outcome.payload.data(), 1, outcome.payload.size(), stdout);
      return 0;
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    serve::Server server(config);
    server.start();
    if (!config.unix_path.empty()) {
      std::fprintf(stderr, "[crs_serve] listening on unix:%s\n",
                   config.unix_path.c_str());
    } else {
      std::fprintf(stderr, "[crs_serve] listening on 127.0.0.1:%u\n",
                   static_cast<unsigned>(server.port()));
    }
    std::fprintf(stderr,
                 "[crs_serve] shards=%d queue=%zu affinity=%s "
                 "session-cache=%zu\n",
                 config.shards, config.queue_capacity,
                 config.affinity ? "on" : "off",
                 config.session_cache_capacity);

    while (g_signal == 0 && !server.shutdown_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::fprintf(stderr, "[crs_serve] shutting down (draining)\n");
    server.shutdown(true);

    const serve::ServeStats stats = server.stats();
    std::fprintf(stderr,
                 "[crs_serve] received=%llu accepted=%llu rejected=%llu "
                 "completed=%llu cancelled=%llu\n",
                 static_cast<unsigned long long>(stats.received),
                 static_cast<unsigned long long>(stats.accepted),
                 static_cast<unsigned long long>(stats.rejected),
                 static_cast<unsigned long long>(stats.completed),
                 static_cast<unsigned long long>(stats.cancelled));

    if (!metrics_path.empty()) {
      core::write_text_file(metrics_path,
                            obs::MetricsRegistry::instance().csv());
      std::fprintf(stderr, "[crs_serve] wrote %zu metrics to %s\n",
                   obs::MetricsRegistry::instance().size(),
                   metrics_path.c_str());
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "crs_serve: %s\n", e.what());
    return 1;
  }
}
