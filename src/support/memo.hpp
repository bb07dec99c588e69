// Exact-key caching for expensive deterministic builds and reusable state.
//
// Campaign-scale drivers run the same scenario thousands of times with only
// the seed (and occasionally the perturb parameters) varying, yet every
// attempt used to rebuild the host workload, re-run ROP recon and reassemble
// the attack binary from scratch. Those builds are pure functions of their
// inputs, so a process-wide cache keyed on the inputs themselves computes
// each artifact once and hands out shared copies — the build-side half of a
// session's setup, paired with machine replication on the execution side
// (see sim/snapshot.hpp and DESIGN.md §10). The same cache holds the
// per-thread sessions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>
#include <type_traits>
#include <utility>

namespace crs {

/// Incremental FNV-1a hasher for routing keys and output digests. Every
/// field feed is length-prefixed by its type width via the fixed-width
/// overloads, so adjacent fields cannot alias. Not collision-resistant:
/// nothing that must tell two inputs apart may rely on it.
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

/// Thread-safe cache: key → shared value, least recently used evicted
/// beyond `capacity` entries (0 = unbounded).
///
/// Each key is stored once and a hit is decided by comparing keys (a
/// std::map over the key type's operator<=>), so two distinct keys never
/// share an entry. With a defaulted operator<=>, every field of a key type
/// takes part without being listed anywhere. A key must not hold a NaN: it
/// compares unordered, which the map reads as equivalent.
///
/// The builder runs outside the lock: two threads racing on a cold key may
/// both build, the first insert wins and both get the resident value, so a
/// slow build never serialises unrelated lookups. Every build counts as a
/// miss, so hits + misses is the number of lookups. A value already handed
/// out lives on through its shared_ptr after eviction.
template <typename Key, typename Value>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity = 0) : capacity_(capacity) {}

  /// The value cached under `key`, built on a miss. `build()` returns the
  /// value itself, or an owning pointer to it for a type that cannot move.
  template <typename Build>
  std::shared_ptr<Value> get_or_build(const Key& key, Build&& build) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (const auto it = map_.find(key); it != map_.end()) {
        ++hits_;
        it->second.last_use = ++tick_;
        return it->second.value;
      }
    }
    std::shared_ptr<Value> built = own(build());
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    const auto [it, inserted] = map_.try_emplace(key, Entry{std::move(built)});
    it->second.last_use = ++tick_;
    if (inserted) evict_down();
    return it->second.value;
  }

  /// Sets the bound (0 = unbounded), evicting down to it at once.
  void set_capacity(std::size_t capacity) {
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity;
    evict_down();
  }

  std::uint64_t hits() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
  }
  std::uint64_t misses() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return map_.size();
  }

 private:
  struct Entry {
    std::shared_ptr<Value> value;
    std::uint64_t last_use = 0;
  };

  template <typename Built>
  static std::shared_ptr<Value> own(Built&& built) {
    if constexpr (std::is_convertible_v<Built, std::shared_ptr<Value>>) {
      return std::forward<Built>(built);
    } else {
      return std::make_shared<Value>(std::forward<Built>(built));
    }
  }

  /// Caller holds mutex_. Linear in the entry count: bounded caches are a
  /// handful of entries, and unbounded ones never get here with work to do.
  void evict_down() {
    while (capacity_ != 0 && map_.size() > capacity_) {
      auto victim = map_.begin();
      for (auto it = map_.begin(); it != map_.end(); ++it) {
        if (it->second.last_use < victim->second.last_use) victim = it;
      }
      map_.erase(victim);
    }
  }

  mutable std::mutex mutex_;
  std::map<Key, Entry> map_;
  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace crs
