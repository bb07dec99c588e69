// The campaign service: a long-lived, multi-tenant scenario scheduler.
//
// Architecture (DESIGN.md §12):
//
//   listener thread ── accepts connections, one reader thread each
//   reader threads  ── decode frames, admit jobs into shard queues
//   N worker shards ── each a thread owning its warm state: the per-thread
//                      ScenarioSession cache (capacity raised via
//                      set_session_cache_capacity), so a shard that has
//                      seen a config before serves the next job of that
//                      config from a restored snapshot.
//
// Admission is explicit backpressure: every shard queue is bounded, and a
// submit that finds its queue full is REJECTED (reason=queue_full) instead
// of buffering unboundedly — the client decides whether to retry.
//
// Scheduling is cache-affine by default: a job is routed to shard
// `job_affinity_key(spec) % shards`, so jobs simulating the same machine
// configuration land where the snapshots are already warm. `affinity=false`
// switches to round-robin (the load driver's control arm).
//
// Determinism: a job's result bytes depend only on its spec — never on the
// shard that ran it, the queue order, CRS_THREADS, or whether the session
// cache was warm — so the served result is byte-identical to the batch CLI
// run of the same spec (tests/test_serve.cpp holds the proof).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/job.hpp"
#include "serve/protocol.hpp"
#include "support/socket.hpp"

namespace crs::serve {

struct ServeConfig {
  /// Worker shards (each owns a session cache).
  int shards = 2;
  /// Bounded per-shard queue; a full queue rejects (backpressure).
  std::size_t queue_capacity = 64;
  /// true = route by job_affinity_key (cache-affine); false = round-robin.
  bool affinity = true;
  /// Non-empty = listen on this Unix-domain socket path.
  std::string unix_path;
  /// Used when unix_path is empty: loopback TCP port (0 = ephemeral).
  std::uint16_t tcp_port = 0;
  /// Per-shard ScenarioSession cache capacity (see
  /// core::set_session_cache_capacity); sized to the distinct configs a
  /// shard is expected to keep warm.
  std::size_t session_cache_capacity = 8;
};

/// Admission/completion tallies. Invariants once quiesced:
///   received == accepted + rejected
///   accepted == completed + cancelled
/// The same counts are mirrored into obs::MetricsRegistry under serve.*.
struct ServeStats {
  std::uint64_t received = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
};

class Server {
 public:
  explicit Server(const ServeConfig& config);
  ~Server();

  /// Binds the endpoint and launches listener + shard workers.
  void start();

  /// Bound TCP port (valid after start() when listening on TCP).
  std::uint16_t port() const { return bound_port_; }

  /// Stops accepting connections, optionally drains queued + in-flight
  /// jobs (every accepted job still gets its RESULT frame), then joins all
  /// threads. Idempotent. With drain=false, queued jobs are dropped and
  /// counted as cancelled so the stats invariants still hold.
  void shutdown(bool drain = true);

  /// True once a client has sent a SHUTDOWN frame; the owning driver polls
  /// this and calls shutdown().
  bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  ServeStats stats() const;

  /// Test hooks: freeze/unfreeze the shard workers between jobs, so tests
  /// can fill a queue deterministically and observe queue_full rejections.
  void pause_workers();
  void resume_workers();

 private:
  struct PendingJob {
    core::JobSpec spec;
    std::shared_ptr<class Connection> conn;
    std::atomic<bool> cancelled{false};
  };

  struct Shard {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::shared_ptr<PendingJob>> queue;
    bool busy = false;  ///< worker currently running a job
    std::thread worker;
  };

  void listener_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void worker_loop(Shard& shard);
  void handle_submit(const std::shared_ptr<Connection>& conn,
                     const std::string& payload);
  /// Ends `job` with its RESULT frame: drops it from the live set, counts
  /// it (cancelled, or completed for ok and failed) and sends `status`
  /// (ok | cancelled | failed) with `payload`.
  void finish_job(PendingJob& job, const std::string& status,
                  std::string payload);

  ServeConfig config_;
  Socket listener_;
  std::uint16_t bound_port_ = 0;
  std::thread listener_thread_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> round_robin_{0};

  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::vector<std::thread> reader_threads_;

  /// Live (queued or running) jobs, keyed by (connection, client job id)
  /// so CANCEL frames resolve to the right tenant's job.
  std::mutex jobs_mutex_;
  std::map<std::pair<const void*, std::uint64_t>, std::weak_ptr<PendingJob>>
      live_jobs_;

  std::atomic<bool> accepting_{false};
  std::atomic<bool> stop_workers_{false};
  std::atomic<bool> drain_{true};
  std::atomic<bool> paused_{false};
  std::atomic<bool> shutdown_requested_{false};
  bool started_ = false;
  bool joined_ = false;

  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> cancelled_{0};
};

}  // namespace crs::serve
