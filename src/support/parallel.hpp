// Deterministic parallel experiment runner.
//
// Every campaign, corpus build and figure sweep in the reproduction is a
// loop over independent work items (one simulated machine each). This module
// runs such loops on a fixed thread pool under a strict determinism
// contract:
//
//   * Work items are share-nothing: each item derives ALL of its state from
//     its index (seed it with `derive_seed(base_seed, index)` and build its
//     own Machine) and touches nothing mutable outside its result slot.
//   * Results are collected by index (`parallel_map` writes `out[i]`) and
//     reduced in index order by the caller.
//
// Under that contract the output is bit-identical to the serial loop for
// every thread count, including 1 (which runs inline with no pool). Thread
// count resolution: explicit argument > `set_thread_override` (the
// `--threads` CLI flag) > `CRS_THREADS` env var > hardware concurrency.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace crs {

/// The most threads a count from outside the program may ask for:
/// CRS_THREADS, the tools' `--threads` and crs_serve's `--shards`. Far above
/// any count the CI or the docs use, it keeps a typo from spawning
/// thousands of OS threads.
inline constexpr unsigned kMaxThreads = 256;

/// Throws crs::Error naming `source` when `count` exceeds kMaxThreads. Call
/// it before starting any thread.
void check_thread_count(std::string_view source, std::uint64_t count);

/// Resolves a worker count; always >= 1. `requested == 0` means "pick for
/// me" (override, then CRS_THREADS, then hardware concurrency). An unset,
/// empty or `0` CRS_THREADS falls through to the hardware count; any other
/// value that is not an unsigned integer up to kMaxThreads throws
/// crs::Error naming it.
unsigned resolve_thread_count(unsigned requested = 0);

/// Installs a process-wide thread-count override (0 clears it). Wired to the
/// `--threads` CLI flag of the tools and benches; beats CRS_THREADS. Throws
/// crs::Error naming `--threads`, and leaves the override as it was, for a
/// count above kMaxThreads.
void set_thread_override(unsigned threads);

/// Mixes (base_seed, index) into an independent per-item stream seed
/// (SplitMix64 finalisation), so item i's Rng does not depend on which
/// thread runs it or on how many items ran before it.
std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index);

/// Fixed pool of worker threads executing one index-ranged job at a time.
class ThreadPool {
 public:
  /// Spawns `resolve_thread_count(threads) - 1` workers (the calling thread
  /// participates in every job). A pool of size 1 spawns nothing and runs
  /// jobs inline — the serial fallback.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that execute work (workers + the caller).
  unsigned size() const { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Runs fn(i) for every i in [0, n), claiming indices dynamically, and
  /// returns once all n calls finished. The first exception thrown by any
  /// item is rethrown here after the batch drains. Not reentrant: do not
  /// call from inside a work item.
  void for_each_index(std::size_t n,
                      const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void run_items();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(std::size_t)>* fn_ = nullptr;  // active job
  std::size_t total_ = 0;
  std::size_t next_ = 0;
  std::size_t pending_ = 0;
  std::uint32_t lane_base_ = 0;  // obs lane block of the active job
  std::exception_ptr error_;
  bool stop_ = false;
};

/// Maps [0, n) through `fn` on the pool, collecting results by index. The
/// index-ordered output vector is what makes downstream reduction
/// deterministic regardless of execution interleaving.
template <typename R, typename F>
std::vector<R> parallel_map(ThreadPool& pool, std::size_t n, F&& fn) {
  std::vector<R> out(n);
  pool.for_each_index(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace crs
