// load_driver — replay a mixed-config request stream against an in-process
// campaign service and measure scheduling quality.
//
// The experiment behind the serving numbers in EXPERIMENTS.md: R scenario
// requests cycling over C distinct configs are fired at a server twice —
// once with cache-affinity routing (jobs land on the shard whose session
// cache is warm for their config) and once with round-robin routing (the
// control arm, whose per-shard LRU thrashes on the cyclic config stream).
// Per-request latency is measured client-side, submit to RESULT.
//
//   load_driver [--requests N] [--configs N] [--shards N] [--attempts N]
//               [--host-scale N] [--threads N] [--bench-json <path>]
//
// --bench-json records (items_per_s semantics in parentheses):
//   BM_ServeLoad/affinity,noaffinity        (requests per second)
//   BM_ServeP50Inverse/affinity,noaffinity  (1000 / p50 latency ms)
//   BM_ServeP95Inverse/affinity             (1000 / p95 latency ms)
//   BM_ServeAttempts/affinity               (scenario attempts per second)
//
// perf-smoke gates BM_ServeP95Inverse + BM_ServeAttempts floors and the
// affinity/noaffinity p50 ratio (>= 2x) via bench/baselines/perf_smoke.json.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/error.hpp"
#include "support/flags.hpp"
#include "support/stats.hpp"

namespace {

using namespace crs;

struct LoadResult {
  double wall_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  std::uint64_t attempts = 0;
};

/// Distinct-but-cheap scenario configs whose affinity keys split as evenly
/// as possible across `shards`. Returns the configs plus the largest
/// per-shard working set (the session-cache size the affinity arm needs to
/// keep every routed config warm).
struct ConfigSet {
  std::vector<core::ScenarioConfig> configs;
  std::size_t max_per_shard = 0;
};

ConfigSet make_configs(int count, int shards, std::uint64_t host_scale) {
  ConfigSet out;
  std::vector<int> per_shard(static_cast<std::size_t>(shards), 0);
  const int want_per_shard = (count + shards - 1) / shards;
  for (std::uint64_t salt = 0; static_cast<int>(out.configs.size()) < count;
       ++salt) {
    core::ScenarioConfig cfg;
    cfg.rop_injected = false;  // standalone: no ROP recon in the hot path
    cfg.host_scale = host_scale + salt;  // distinct session identity
    cfg.seed = 1 + salt;
    core::JobSpec probe;
    probe.kind = core::JobKind::kScenario;
    probe.scenario.config = cfg;
    const auto shard = static_cast<std::size_t>(
        core::job_affinity_key(probe) % static_cast<std::uint64_t>(shards));
    if (per_shard[shard] >= want_per_shard) continue;
    ++per_shard[shard];
    out.configs.push_back(cfg);
  }
  for (const int n : per_shard) {
    out.max_per_shard =
        std::max(out.max_per_shard, static_cast<std::size_t>(n));
  }
  return out;
}

LoadResult run_load(const ConfigSet& set, int requests, int shards,
                    int attempts, bool affinity) {
  const std::vector<core::ScenarioConfig>& configs = set.configs;
  serve::ServeConfig scfg;
  scfg.shards = shards;
  scfg.queue_capacity = static_cast<std::size_t>(requests) + 1;
  scfg.affinity = affinity;
  scfg.tcp_port = 0;
  // Sized for the affinity arm's per-shard working set; the round-robin
  // arm sees every config on every shard (the config count is coprime to
  // the shard count, so the cyclic stream cannot accidentally partition)
  // and pays an LRU miss — a full session rebuild — per request. That
  // asymmetry is the measurement.
  scfg.session_cache_capacity = set.max_per_shard;

  serve::Server server(scfg);
  server.start();
  serve::Client client = serve::Client::connect_tcp(server.port());

  LoadResult result;
  std::vector<double> latencies;
  latencies.reserve(static_cast<std::size_t>(requests));

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < requests; ++i) {
    core::JobSpec spec;
    spec.kind = core::JobKind::kScenario;
    spec.id = static_cast<std::uint64_t>(i);
    spec.scenario.config =
        configs[static_cast<std::size_t>(i) % configs.size()];
    spec.scenario.attempts = attempts;

    const auto r0 = std::chrono::steady_clock::now();
    const serve::Client::JobResult job = client.run(spec);
    const auto r1 = std::chrono::steady_clock::now();
    CRS_ENSURE(job.accepted && job.status == "ok",
               "load_driver: request " + std::to_string(i) + " failed");
    latencies.push_back(
        std::chrono::duration<double, std::milli>(r1 - r0).count());
    result.attempts += static_cast<std::uint64_t>(attempts);
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  result.p50_ms = percentile(latencies, 50.0);
  result.p95_ms = percentile(latencies, 95.0);

  server.shutdown(true);
  const serve::ServeStats stats = server.stats();
  CRS_ENSURE(stats.received == static_cast<std::uint64_t>(requests) &&
                 stats.completed == static_cast<std::uint64_t>(requests),
             "load_driver: stats do not reconcile");
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bench::BenchIo io = bench::BenchIo::strip(argc, argv);
    int requests = 400;
    int configs = 9;
    int shards = 2;
    int attempts = 1;
    std::uint64_t host_scale = 2000;

    FlagCursor args(argc, argv);
    while (args.more()) {
      if (args.take_number("--requests", requests)) {
      } else if (args.take_number("--configs", configs)) {
      } else if (args.take_number("--shards", shards)) {
      } else if (args.take_number("--attempts", attempts)) {
      } else if (args.take_number("--host-scale", host_scale)) {
      } else {
        args.unknown();
      }
    }
    CRS_ENSURE(std::gcd(configs, shards) == 1,
               "--configs must be coprime to --shards (otherwise the "
               "round-robin arm partitions the cyclic stream instead of "
               "thrashing)");

    const ConfigSet cfgs = make_configs(configs, shards, host_scale);

    std::printf("load_driver: %d requests over %d configs, %d shards, "
                "%d attempt(s) per job\n",
                requests, configs, shards, attempts);
    const LoadResult warm = run_load(cfgs, requests, shards, attempts, true);
    const LoadResult cold = run_load(cfgs, requests, shards, attempts, false);

    const auto report = [&](const char* name, const LoadResult& r) {
      std::printf(
          "  %-10s  %8.1f req/s   p50 %7.3f ms   p95 %7.3f ms   "
          "%8.1f attempts/s\n",
          name, requests / (r.wall_ms / 1e3), r.p50_ms, r.p95_ms,
          static_cast<double>(r.attempts) / (r.wall_ms / 1e3));
    };
    report("affinity", warm);
    report("noaffinity", cold);
    std::printf("  affinity p50 speedup: %.2fx\n", cold.p50_ms / warm.p50_ms);

    io.emit("BM_ServeLoad/affinity", warm.wall_ms,
            requests / (warm.wall_ms / 1e3));
    io.emit("BM_ServeLoad/noaffinity", cold.wall_ms,
            requests / (cold.wall_ms / 1e3));
    io.emit("BM_ServeP50Inverse/affinity", warm.p50_ms, 1000.0 / warm.p50_ms);
    io.emit("BM_ServeP50Inverse/noaffinity", cold.p50_ms,
            1000.0 / cold.p50_ms);
    io.emit("BM_ServeP95Inverse/affinity", warm.p95_ms, 1000.0 / warm.p95_ms);
    io.emit("BM_ServeAttempts/affinity", warm.wall_ms,
            static_cast<double>(warm.attempts) / (warm.wall_ms / 1e3));
    return 0;
  } catch (const crs::Error& e) {
    std::fprintf(stderr, "load_driver: %s\n", e.what());
    return 1;
  }
}
