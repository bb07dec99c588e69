// Soak tier for the campaign service (docs/SERVING.md, docs/TESTING.md).
//
// Hammers one 2-shard server with several concurrent tenant connections
// submitting mixed job kinds, pipelining submits, and cancelling roughly
// every tenth job mid-flight, for a wall-clock budget taken from
// CRS_SOAK_MS (default 3 s locally; CI runs it at 45 s under ASan). The
// assertions are the service's conservation laws:
//
//   received  == accepted + rejected      (every submit answered once)
//   accepted  == completed + cancelled    (every accepted job terminal)
//
// checked both on ServeStats and on the mirrored serve.* metrics registry
// counters, plus per-client: every accepted id got exactly one RESULT and
// no client ever deadlocks waiting for a frame that will not come. Under
// ASan this doubles as the leak check for the session caches, machine
// pools and in-flight job records.
//
// CRS_SOAK_ARTIFACTS=<dir> additionally dumps the metrics registry CSV
// there (the CI serve job uploads it).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/job.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

namespace crs {
namespace {

using serve::Client;
using serve::FrameType;
using serve::Server;

std::uint64_t soak_budget_ms() {
  if (const char* env = std::getenv("CRS_SOAK_MS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::uint64_t>(v);
  }
  return 3000;
}

/// Cheap-but-varied job mix. Scenario jobs dominate (they exercise the
/// session caches); every few jobs a program job, on a clean machine of
/// its own, runs on the same shards between them.
core::JobSpec make_job(std::uint64_t id, std::uint64_t salt) {
  core::JobSpec spec;
  spec.id = id;
  if (salt % 5 == 4) {
    spec.kind = core::JobKind::kProgram;
    spec.program.source =
        "main:\n"
        "  movi r1, " + std::to_string(salt % 7) + "\n"
        "  call exit_\n";
    return spec;
  }
  spec.kind = core::JobKind::kScenario;
  spec.scenario.config.rop_injected = false;
  spec.scenario.config.secret = "SOAK";
  spec.scenario.config.host_scale = 600 + salt % 4;  // 4 distinct configs
  spec.scenario.config.seed = 1 + salt;
  // Enough attempts that a cancel has something to interrupt.
  spec.scenario.attempts = 3 + static_cast<int>(salt % 4);
  return spec;
}

struct ClientTally {
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t results_ok = 0;
  std::uint64_t results_cancelled = 0;
  std::uint64_t results_failed = 0;
  bool clean = true;
};

/// One tenant: keeps up to `kWindow` jobs in flight, cancels every ~10th
/// submit right after its first PROGRESS would plausibly have fired, and
/// drains everything before returning. Runs its own event loop — a
/// pipelined client must not use await_result (results arrive in shard
/// completion order, not submission order).
ClientTally run_tenant(std::uint16_t port, unsigned tenant,
                       std::chrono::steady_clock::time_point deadline) {
  constexpr std::uint64_t kWindow = 4;
  ClientTally tally;
  Client client = Client::connect_tcp(port);
  std::map<std::uint64_t, bool> outstanding;  // id -> accepted yet
  std::uint64_t next_id = 1;
  std::uint64_t salt = tenant * 1000003u;

  const auto pump_one = [&]() {
    const Client::Event ev = client.next_event();
    switch (ev.type) {
      case FrameType::kAccepted:
        ++tally.accepted;
        outstanding[ev.id] = true;
        break;
      case FrameType::kRejected:
        ++tally.rejected;
        outstanding.erase(ev.id);
        break;
      case FrameType::kProgress:
        break;
      case FrameType::kResult:
        if (ev.status == "ok") {
          ++tally.results_ok;
          if (ev.payload.empty()) tally.clean = false;
        } else if (ev.status == "cancelled") {
          ++tally.results_cancelled;
        } else {
          ++tally.results_failed;
        }
        if (outstanding.erase(ev.id) != 1) tally.clean = false;
        break;
      default:
        tally.clean = false;  // unexpected frame kind
        break;
    }
  };

  while (std::chrono::steady_clock::now() < deadline) {
    const std::uint64_t id = next_id++;
    client.submit(make_job(id, salt++));
    ++tally.submitted;
    outstanding[id] = false;  // pending server verdict
    if (id % 10 == 3) client.cancel(id);  // the killer: ~10% die mid-flight
    // Don't let the pipeline run away from the queue capacity.
    while (outstanding.size() >= kWindow) pump_one();
  }
  // Drain: every submitted job must reach a terminal frame. A missing
  // RESULT would hang here — the watchdog below turns that into a failure
  // instead of a stuck CI job.
  while (!outstanding.empty()) pump_one();
  return tally;
}

TEST(ServeSoak, CountersReconcileUnderChurnAndCancels) {
  const auto budget = std::chrono::milliseconds(soak_budget_ms());
  obs::MetricsRegistry::instance().reset_values();

  serve::ServeConfig scfg;
  scfg.shards = 2;
  scfg.queue_capacity = 8;  // small enough that backpressure can trigger
  scfg.session_cache_capacity = 4;
  Server server(scfg);
  server.start();

  constexpr unsigned kTenants = 3;
  const auto deadline = std::chrono::steady_clock::now() + budget;
  std::vector<ClientTally> tallies(kTenants);
  {
    std::vector<std::thread> tenants;
    std::atomic<unsigned> done{0};
    for (unsigned t = 0; t < kTenants; ++t) {
      tenants.emplace_back([&, t] {
        tallies[t] = run_tenant(server.port(), t, deadline);
        done.fetch_add(1);
      });
    }
    // Watchdog: tenants must drain within the budget plus a generous grace
    // period for in-flight campaign work. A stuck job trips this.
    const auto hard_stop = deadline + std::chrono::seconds(60);
    while (done.load() < kTenants) {
      ASSERT_LT(std::chrono::steady_clock::now(), hard_stop)
          << "tenant stuck waiting for a terminal frame";
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    for (auto& t : tenants) t.join();
  }

  server.shutdown(true);
  const serve::ServeStats stats = server.stats();

  ClientTally sum;
  for (const ClientTally& t : tallies) {
    EXPECT_TRUE(t.clean);
    sum.submitted += t.submitted;
    sum.accepted += t.accepted;
    sum.rejected += t.rejected;
    sum.results_ok += t.results_ok;
    sum.results_cancelled += t.results_cancelled;
    sum.results_failed += t.results_failed;
  }
  ASSERT_GT(sum.submitted, 0u);
  EXPECT_EQ(sum.results_failed, 0u);

  // Server-side conservation laws.
  EXPECT_EQ(stats.received, stats.accepted + stats.rejected);
  EXPECT_EQ(stats.accepted, stats.completed + stats.cancelled);
  // Client- and server-side ledgers agree exactly.
  EXPECT_EQ(stats.received, sum.submitted);
  EXPECT_EQ(stats.accepted, sum.accepted);
  EXPECT_EQ(stats.rejected, sum.rejected);
  EXPECT_EQ(stats.completed, sum.results_ok + sum.results_failed);
  EXPECT_EQ(stats.cancelled, sum.results_cancelled);

  // The mirrored observability counters tell the same story.
  auto& reg = obs::MetricsRegistry::instance();
  EXPECT_EQ(reg.counter("serve.received").value(), stats.received);
  EXPECT_EQ(reg.counter("serve.accepted").value(), stats.accepted);
  EXPECT_EQ(reg.counter("serve.rejected").value(), stats.rejected);
  EXPECT_EQ(reg.counter("serve.completed").value(), stats.completed);
  EXPECT_EQ(reg.counter("serve.cancelled").value(), stats.cancelled);

  if (const char* dir = std::getenv("CRS_SOAK_ARTIFACTS")) {
    core::write_text_file(std::string(dir) + "/soak_metrics.csv", reg.csv());
  }

  std::printf(
      "soak: %llu submitted, %llu accepted, %llu rejected, %llu ok, "
      "%llu cancelled over %llu ms\n",
      static_cast<unsigned long long>(sum.submitted),
      static_cast<unsigned long long>(sum.accepted),
      static_cast<unsigned long long>(sum.rejected),
      static_cast<unsigned long long>(sum.results_ok),
      static_cast<unsigned long long>(sum.results_cancelled),
      static_cast<unsigned long long>(soak_budget_ms()));
}

}  // namespace
}  // namespace crs
