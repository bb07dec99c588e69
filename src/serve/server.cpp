#include "serve/server.hpp"

#include <unistd.h>

#include <cstdlib>

#include "core/scenario.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"

namespace crs::serve {

namespace {

void bump(const char* name) {
  obs::MetricsRegistry::instance().counter(name).add(1);
}

/// Best-effort extraction of the client's job id from a submit payload that
/// failed strict parsing, so the rejection can still echo it.
std::uint64_t scan_job_id(const std::string& payload) {
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t nl = payload.find('\n', pos);
    if (nl == std::string::npos) nl = payload.size();
    const std::string line = payload.substr(pos, nl - pos);
    if (line.rfind("id=", 0) == 0) {
      char* end = nullptr;
      const std::uint64_t id = std::strtoull(line.c_str() + 3, &end, 10);
      if (end != line.c_str() + 3 && *end == '\0') return id;
      return 0;
    }
    pos = nl + 1;
  }
  return 0;
}

}  // namespace

/// One client connection: the socket plus a mutex serialising frame writes
/// (reader thread and every worker shard may respond concurrently). Once a
/// send fails the connection is dead — subsequent sends return false
/// instead of throwing, so workers finish jobs for vanished clients
/// without unwinding.
class Connection {
 public:
  explicit Connection(Socket sock) : sock_(std::move(sock)) {}

  bool send(FrameType type, std::string_view payload) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    if (dead_) return false;
    try {
      const std::string frame = encode_frame(type, payload);
      sock_.send_all(frame.data(), frame.size());
      return true;
    } catch (const Error&) {
      dead_ = true;
      return false;
    }
  }

  Socket& socket() { return sock_; }

  void shutdown_both() { sock_.shutdown_both(); }

 private:
  Socket sock_;
  std::mutex write_mutex_;
  bool dead_ = false;
};

Server::Server(const ServeConfig& config) : config_(config) {
  CRS_ENSURE(config_.shards >= 1, "server needs at least one shard");
  check_thread_count("shards", static_cast<std::uint64_t>(config_.shards));
  CRS_ENSURE(config_.queue_capacity >= 1, "queue capacity must be >= 1");
}

Server::~Server() { shutdown(true); }

void Server::start() {
  CRS_ENSURE(!started_, "server already started");
  started_ = true;

  if (!config_.unix_path.empty()) {
    listener_ = listen_unix(config_.unix_path);
  } else {
    listener_ = listen_tcp_loopback(config_.tcp_port, bound_port_);
  }

  for (int i = 0; i < config_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, s = shard.get()] { worker_loop(*s); });
  }
  accepting_.store(true, std::memory_order_relaxed);
  listener_thread_ = std::thread([this] { listener_loop(); });
}

void Server::listener_loop() {
  while (accepting_.load(std::memory_order_relaxed)) {
    std::optional<Socket> sock;
    try {
      sock = accept_with_timeout(listener_, 50);
    } catch (const Error&) {
      // shutdown() shutdown(2)s the listening socket to wake us; accept
      // then fails (EINVAL) — that is the stop signal, not a fault.
      return;
    }
    if (!sock) continue;
    auto conn = std::make_shared<Connection>(std::move(*sock));
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns_.push_back(conn);
    reader_threads_.emplace_back(
        [this, conn = std::move(conn)] { reader_loop(conn); });
  }
}

void Server::reader_loop(std::shared_ptr<Connection> conn) {
  FrameDecoder decoder;
  char buf[4096];
  while (true) {
    std::size_t n = 0;
    try {
      n = conn->socket().recv_some(buf, sizeof buf);
    } catch (const Error&) {
      return;  // connection reset mid-read
    }
    if (n == 0) return;  // orderly EOF
    decoder.feed(buf, n);

    try {
      while (auto frame = decoder.next()) {
        switch (frame->type) {
          case FrameType::kSubmit:
            handle_submit(conn, frame->payload);
            break;
          case FrameType::kCancel: {
            const AcceptedPayload p = parse_accepted(frame->payload);
            std::lock_guard<std::mutex> lock(jobs_mutex_);
            const auto it = live_jobs_.find({conn.get(), p.id});
            if (it != live_jobs_.end()) {
              if (auto job = it->second.lock()) {
                job->cancelled.store(true, std::memory_order_relaxed);
              }
            }
            break;
          }
          case FrameType::kPing:
            conn->send(FrameType::kPong, frame->payload);
            break;
          case FrameType::kShutdown:
            shutdown_requested_.store(true, std::memory_order_relaxed);
            conn->send(FrameType::kPong, "");
            break;
          default:
            // Clients have no business sending server->client frames.
            conn->send(FrameType::kError,
                       "detail=unexpected " + frame_type_name(frame->type) +
                           " frame\n");
            return;
        }
      }
    } catch (const Error& e) {
      // Malformed stream: complain once, close, keep serving other tenants.
      conn->send(FrameType::kError,
                 "detail=" + std::string(e.what()) + "\n");
      conn->shutdown_both();
      return;
    }
  }
}

void Server::handle_submit(const std::shared_ptr<Connection>& conn,
                           const std::string& payload) {
  received_.fetch_add(1, std::memory_order_relaxed);
  bump("serve.received");

  const auto reject = [&](std::uint64_t id, const std::string& reason,
                          const std::string& detail) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.rejected");
    conn->send(FrameType::kRejected, encode_rejected({.id = id,
                                                      .reason = reason,
                                                      .detail = detail}));
  };

  core::JobSpec spec;
  try {
    spec = core::parse_job(payload);
  } catch (const Error& e) {
    reject(scan_job_id(payload), "bad_request", e.what());
    return;
  }

  if (!accepting_.load(std::memory_order_relaxed) ||
      shutdown_requested_.load(std::memory_order_relaxed)) {
    reject(spec.id, "shutting_down", "");
    return;
  }

  const std::size_t shard_index =
      config_.affinity
          ? static_cast<std::size_t>(core::job_affinity_key(spec) %
                                     static_cast<std::uint64_t>(
                                         shards_.size()))
          : static_cast<std::size_t>(
                round_robin_.fetch_add(1, std::memory_order_relaxed) %
                shards_.size());
  Shard& shard = *shards_[shard_index];

  auto job = std::make_shared<PendingJob>();
  job->spec = std::move(spec);
  job->conn = conn;

  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    if (shard.queue.size() >= config_.queue_capacity) {
      lock.unlock();
      reject(job->spec.id, "queue_full", "");
      return;
    }
    shard.queue.push_back(job);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.accepted");
    {
      std::lock_guard<std::mutex> jlock(jobs_mutex_);
      live_jobs_[{conn.get(), job->spec.id}] = job;
    }
    // ACCEPTED must hit the wire before the worker can emit the job's
    // first PROGRESS frame; the worker cannot pop until this lock drops.
    conn->send(FrameType::kAccepted, encode_accepted({.id = job->spec.id}));
  }
  shard.cv.notify_one();
}

void Server::worker_loop(Shard& shard) {
  // Each shard keeps its own warm set: raise the calling thread's session
  // cache so every config routed here by affinity stays resident.
  core::set_session_cache_capacity(config_.session_cache_capacity);

  while (true) {
    std::shared_ptr<PendingJob> job;
    {
      std::unique_lock<std::mutex> lock(shard.mutex);
      shard.cv.wait(lock, [&] {
        return stop_workers_.load(std::memory_order_relaxed) ||
               (!paused_.load(std::memory_order_relaxed) &&
                !shard.queue.empty());
      });
      if (stop_workers_.load(std::memory_order_relaxed)) {
        if (!drain_.load(std::memory_order_relaxed)) {
          // Hard stop: every queued job still gets a terminal frame.
          while (!shard.queue.empty()) {
            auto dropped = shard.queue.front();
            shard.queue.pop_front();
            finish_job(*dropped, "cancelled", "");
          }
          return;
        }
        if (shard.queue.empty()) return;  // drained
      }
      job = shard.queue.front();
      shard.queue.pop_front();
      shard.busy = true;
    }

    if (job->cancelled.load(std::memory_order_relaxed)) {
      finish_job(*job, "cancelled", "");  // cancelled while queued: never ran
    } else {
      const auto on_progress = [&](const core::JobProgress& p) {
        if (job->cancelled.load(std::memory_order_relaxed)) return false;
        // A vanished client cancels its job: no point simulating for a
        // closed socket.
        return job->conn->send(FrameType::kProgress,
                               encode_progress({.id = job->spec.id,
                                                .progress = p}));
      };
      try {
        core::JobOutcome outcome = core::run_job(job->spec, on_progress);
        finish_job(*job, outcome.cancelled ? "cancelled" : "ok",
                   std::move(outcome.payload));
      } catch (const std::exception& e) {
        // Any failure, crs::Error or not (std::bad_alloc), fails this job
        // only: an escaped exception would end the shard thread, and with
        // it the server.
        finish_job(*job, "failed", e.what());
      }
    }

    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.busy = false;
    }
    shard.cv.notify_all();
  }
}

void Server::finish_job(PendingJob& job, const std::string& status,
                        std::string payload) {
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    live_jobs_.erase({job.conn.get(), job.spec.id});
  }
  if (status == "cancelled") {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.cancelled");
  } else {
    completed_.fetch_add(1, std::memory_order_relaxed);
    bump("serve.completed");
  }
  job.conn->send(FrameType::kResult,
                 encode_result({.id = job.spec.id,
                                .status = status,
                                .payload = std::move(payload)}));
}

void Server::shutdown(bool drain) {
  if (!started_ || joined_) return;
  joined_ = true;

  // 1. Stop admitting: no new connections, submits reject shutting_down.
  accepting_.store(false, std::memory_order_relaxed);
  listener_.shutdown_both();
  if (listener_thread_.joinable()) listener_thread_.join();
  listener_.close();
  if (!config_.unix_path.empty()) ::unlink(config_.unix_path.c_str());

  // 2. Drain (or drop) the shard queues; every accepted job gets its
  //    RESULT frame before the worker exits.
  drain_.store(drain, std::memory_order_relaxed);
  paused_.store(false, std::memory_order_relaxed);
  stop_workers_.store(true, std::memory_order_relaxed);
  for (auto& shard : shards_) shard->cv.notify_all();
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // A submit racing the shutdown edge may have been queued after its
  // worker exited; cancel it here so every accepted job still terminates.
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    while (!shard->queue.empty()) {
      auto dropped = shard->queue.front();
      shard->queue.pop_front();
      finish_job(*dropped, "cancelled", "");
    }
  }

  // 3. Only now sever clients: results are already on the wire.
  std::vector<std::shared_ptr<Connection>> conns;
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    conns.swap(conns_);
    readers.swap(reader_threads_);
  }
  for (auto& conn : conns) conn->shutdown_both();
  for (auto& t : readers) {
    if (t.joinable()) t.join();
  }
}

ServeStats Server::stats() const {
  ServeStats s;
  s.received = received_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  return s;
}

void Server::pause_workers() {
  paused_.store(true, std::memory_order_relaxed);
}

void Server::resume_workers() {
  paused_.store(false, std::memory_order_relaxed);
  for (auto& shard : shards_) shard->cv.notify_all();
}

}  // namespace crs::serve
