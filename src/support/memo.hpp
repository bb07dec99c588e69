// Content-addressed memoization for expensive deterministic builds.
//
// Campaign-scale drivers run the same scenario thousands of times with only
// the seed (and occasionally the perturb parameters) varying, yet every
// attempt used to rebuild the host workload, re-run ROP recon and reassemble
// the attack binary from scratch. Those builds are pure functions of their
// configs, so a process-wide cache keyed on a config hash computes each
// artifact once and hands out shared immutable copies — the build-side half
// of a session's setup, paired with machine replication on the execution
// side (see sim/snapshot.hpp and DESIGN.md §10).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

namespace crs {

/// Incremental FNV-1a hasher for building content-addressed cache keys out
/// of config structs. Every field feed is length-prefixed by its type width
/// via the fixed-width overloads, so adjacent fields cannot alias.
class HashBuilder {
 public:
  HashBuilder& bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      hash_ ^= p[i];
      hash_ *= 1099511628211ull;
    }
    return *this;
  }
  HashBuilder& u64(std::uint64_t v) { return bytes(&v, sizeof(v)); }
  HashBuilder& u32(std::uint32_t v) { return bytes(&v, sizeof(v)); }
  HashBuilder& i64(std::int64_t v) { return bytes(&v, sizeof(v)); }
  HashBuilder& b(bool v) { return u32(v ? 1u : 0u); }
  HashBuilder& f64(double v) { return bytes(&v, sizeof(v)); }
  HashBuilder& str(std::string_view s) {
    u64(s.size());
    return bytes(s.data(), s.size());
  }
  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;  // FNV offset basis
};

/// Thread-safe build cache: key → shared immutable artifact. The builder
/// runs outside the lock (two threads racing on a cold key may both build;
/// the first insert wins and both get the same deterministic value), so a
/// slow build never serialises unrelated lookups.
///
/// A cache built with a nonzero `capacity` holds at most that many entries
/// and evicts the least recently used one; an artifact already handed out
/// lives on through its shared_ptr. A lookup may pass `matches`, which vets
/// a cached artifact against the request before it counts as a hit: keys
/// are 64-bit digests, so a caller whose inputs are too large to trust a
/// digest with compares the inputs themselves. An artifact that fails the
/// check is rebuilt and replaced. `matches` runs without the lock held.
template <typename T>
class MemoCache {
 public:
  using Matches = std::function<bool(const T&)>;

  explicit MemoCache(std::size_t capacity = 0) : capacity_(capacity) {}

  std::shared_ptr<const T> get_or_build(std::uint64_t key,
                                        const std::function<T()>& build,
                                        const Matches& matches = nullptr) {
    if (auto cached = lookup(key); cached && (!matches || matches(*cached))) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return cached;
    }
    auto built = std::make_shared<const T>(build());
    misses_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = map_.try_emplace(key);
    if (inserted) {
      recency_.push_front(key);
      it->second = Entry{std::move(built), recency_.begin()};
      if (capacity_ != 0 && map_.size() > capacity_) {
        map_.erase(recency_.back());
        recency_.pop_back();
      }
      return it->second.value;
    }
    // Another thread inserted this key since the lookup. Without a check the
    // first insert wins; with one, the fresh build is the artifact known to
    // match (the resident one may be a digest collision).
    if (matches) it->second.value = std::move(built);
    recency_.splice(recency_.begin(), recency_, it->second.recency);
    return it->second.value;
  }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }
  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    recency_.clear();
  }

 private:
  struct Entry {
    std::shared_ptr<const T> value;
    std::list<std::uint64_t>::iterator recency;
  };

  /// The cached artifact (now the most recently used), or null.
  std::shared_ptr<const T> lookup(std::uint64_t key) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it == map_.end()) return nullptr;
    recency_.splice(recency_.begin(), recency_, it->second.recency);
    return it->second.value;
  }

  const std::size_t capacity_;  ///< 0 = unbounded
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> map_;
  std::list<std::uint64_t> recency_;  ///< keys, most recently used first
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace crs
