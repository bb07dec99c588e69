#include "support/parallel.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "obs/obs.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace crs {

namespace {

std::atomic<unsigned> g_thread_override{0};

}  // namespace

void check_thread_count(std::string_view source, std::uint64_t count) {
  if (count > kMaxThreads) {
    throw Error(std::string(source) + " asks for " + std::to_string(count) +
                " threads; the limit is " + std::to_string(kMaxThreads));
  }
}

void set_thread_override(unsigned threads) {
  check_thread_count("--threads", threads);
  g_thread_override.store(threads, std::memory_order_relaxed);
}

unsigned resolve_thread_count(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned overridden = g_thread_override.load(std::memory_order_relaxed);
  if (overridden > 0) return overridden;
  if (const char* env = std::getenv("CRS_THREADS")) {
    // Empty and 0 mean "hardware count", as `--threads 0` does.
    const unsigned parsed =
        *env == '\0' ? 0 : parse_number<unsigned>("CRS_THREADS", env);
    check_thread_count("CRS_THREADS", parsed);
    if (parsed > 0) return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::uint64_t derive_seed(std::uint64_t base_seed, std::uint64_t index) {
  // SplitMix64 finalisation over (base, index): adjacent indices land in
  // statistically independent streams, and the result is a pure function of
  // the pair — no dependence on execution order.
  std::uint64_t z = base_seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned count = resolve_thread_count(threads);
  workers_.reserve(count - 1);
  for (unsigned i = 1; i < count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run_items() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (fn_ != nullptr && next_ < total_) {
    const std::size_t index = next_++;
    const auto* fn = fn_;
    const std::uint32_t lane_base = lane_base_;
    lock.unlock();
    std::exception_ptr err;
    try {
      // Tag everything the item emits with the region's lane for its index
      // so traces are independent of which OS thread picked it up.
      obs::LaneScope lane(lane_base + static_cast<std::uint32_t>(index));
      (*fn)(index);
    } catch (...) {
      err = std::current_exception();
    }
    lock.lock();
    if (err && !error_) error_ = err;
    if (--pending_ == 0) {
      fn_ = nullptr;
      done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    wake_.wait(lock,
               [this] { return stop_ || (fn_ != nullptr && next_ < total_); });
    if (stop_) return;
    lock.unlock();
    run_items();
    lock.lock();
  }
}

void ThreadPool::for_each_index(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Every region claims a fresh lane block — in program order, so the lane
  // of work item i is the same for every thread count.
  const std::uint32_t lane_base =
      obs::allocate_lane_block(static_cast<std::uint32_t>(n));
  if (workers_.empty()) {
    // Serial fallback: no pool machinery, exceptions propagate directly.
    // Lanes are still scoped so serial and pooled runs emit identically.
    for (std::size_t i = 0; i < n; ++i) {
      obs::LaneScope lane(lane_base + static_cast<std::uint32_t>(i));
      fn(i);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    total_ = n;
    next_ = 0;
    pending_ = n;
    lane_base_ = lane_base;
    error_ = nullptr;
  }
  wake_.notify_all();
  run_items();  // the calling thread works too
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return pending_ == 0; });
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace crs
