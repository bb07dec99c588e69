#include "sim/cache.hpp"

#include <string>

#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace crs::sim {

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

CacheLevel::CacheLevel(const CacheConfig& config) : config_(config) {
  CRS_ENSURE(is_pow2(config.line_size), "cache line size must be a power of two");
  CRS_ENSURE(config.ways > 0, "cache must have at least one way");
  CRS_ENSURE(config.size_bytes % (config.line_size * config.ways) == 0,
             "cache size must be a multiple of line_size * ways");
  num_sets_ = config.size_bytes / (config.line_size * config.ways);
  CRS_ENSURE(is_pow2(num_sets_), "number of sets must be a power of two");
  ways_.resize(static_cast<std::size_t>(num_sets_) * config.ways);
  CRS_ENSURE(ways_.size() <= 0x10000,
             "cache holds more lines than its line->way memo can index");
  while ((1u << line_shift_) < config_.line_size) ++line_shift_;
  while ((1u << sets_shift_) < num_sets_) ++sets_shift_;
  // One entry per line the level holds, rounded up to a power of two.
  std::uint64_t entries = num_sets_;
  while (entries < ways_.size()) entries <<= 1;
  line_memo_mask_ = entries - 1;
  line_way_.resize(entries);
  for (std::uint64_t e = 0; e < entries; ++e) {
    line_way_[e] =
        static_cast<std::uint16_t>((e & (num_sets_ - 1)) * config_.ways);
  }
}

std::uint64_t CacheLevel::set_index(std::uint64_t addr) const {
  return (addr >> line_shift_) & (num_sets_ - 1);
}

std::uint64_t CacheLevel::tag_of(std::uint64_t addr) const {
  return addr >> (line_shift_ + sets_shift_);
}

bool CacheLevel::access_search(std::uint64_t addr) {
  const std::uint64_t line = addr >> line_shift_;
  const std::uint64_t tag = line >> sets_shift_;
  const std::uint64_t set = line & (num_sets_ - 1);
  Way* base = &ways_[set * config_.ways];
  ++use_counter_;

  // Victim selection over [lo, hi): prefer an invalid way, else LRU.
  const auto select_victim = [&](std::uint32_t lo, std::uint32_t hi) {
    Way* victim = &base[lo];
    for (std::uint32_t w = lo; w < hi; ++w) {
      Way& way = base[w];
      if (!way.valid) {
        victim = &way;  // prefer an invalid way
      } else if (victim->valid && way.lru < victim->lru) {
        victim = &way;
      }
    }
    return victim;
  };

  // Hit search across the whole set: partitioning only constrains where
  // fills land, it never hides a resident line (lines filled before the
  // boundary was armed stay usable wherever they are).
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    Way& way = base[w];
    if (way.valid && way.tag == tag) {
      way.lru = use_counter_;
      mru_way_ = static_cast<std::uint32_t>(&way - ways_.data());
      line_way_[line & line_memo_mask_] = static_cast<std::uint16_t>(mru_way_);
      ++stats_.hits;
      return true;
    }
  }

  std::uint32_t victim_lo = 0;
  std::uint32_t victim_hi = config_.ways;
  if (partition_armed_) {
    if (addr < partition_boundary_) {
      victim_hi = config_.partition_ways;
    } else {
      victim_lo = config_.partition_ways;
    }
  }
  Way* victim = select_victim(victim_lo, victim_hi);
  if (partition_armed_) {
    ++stats_.partition_fills;
    const Way* unrestricted = select_victim(0, config_.ways);
    if (unrestricted < base + victim_lo || unrestricted >= base + victim_hi) {
      // The set-wide replacement policy would have displaced a line in the
      // other domain's ways — the cross-domain eviction the partition
      // exists to prevent.
      ++stats_.partition_blocked;
    }
  }
  ++stats_.misses;
  if (victim->valid) ++stats_.evictions;
  victim->valid = true;
  victim->tag = tag;
  victim->lru = use_counter_;
  mru_way_ = static_cast<std::uint32_t>(victim - ways_.data());
  line_way_[line & line_memo_mask_] = static_cast<std::uint16_t>(mru_way_);
  return false;
}

bool CacheLevel::probe(std::uint64_t addr) const {
  const std::uint64_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  const Way* base = &ways_[set * config_.ways];
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) return true;
  }
  return false;
}

void CacheLevel::flush_line(std::uint64_t addr) {
  const std::uint64_t set = set_index(addr);
  const std::uint64_t tag = tag_of(addr);
  Way* base = &ways_[set * config_.ways];
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    if (base[w].valid && base[w].tag == tag) {
      base[w].valid = false;
      return;
    }
  }
}

void CacheLevel::clear() {
  for (auto& way : ways_) way = Way{};
  use_counter_ = 0;
  // Forget the last way: access_repeat_hits would otherwise stamp an
  // invalidated way (access() rechecks valid+tag through the line->way memo,
  // but the batched-credit path trusts mru_way_ by contract). The line->way
  // entries stay in their sets, where a stale entry only misses.
  mru_way_ = kNoWay;
}

std::string CacheLevel::check_invariants() const {
  for (std::uint64_t set = 0; set < num_sets_; ++set) {
    const Way* base = &ways_[set * config_.ways];
    for (std::uint32_t w = 0; w < config_.ways; ++w) {
      const Way& way = base[w];
      if (!way.valid) continue;
      if (way.lru > use_counter_) {
        return "set " + std::to_string(set) + " way " + std::to_string(w) +
               ": lru stamp " + std::to_string(way.lru) +
               " ahead of use counter " + std::to_string(use_counter_);
      }
      for (std::uint32_t v = w + 1; v < config_.ways; ++v) {
        if (base[v].valid && base[v].tag == way.tag) {
          return "set " + std::to_string(set) + ": duplicate tag " +
                 std::to_string(way.tag) + " in ways " + std::to_string(w) +
                 " and " + std::to_string(v);
        }
      }
    }
  }
  // A line->way entry outside its own set could false-hit a line of the
  // same tag in another set.
  for (std::uint64_t e = 0; e < line_way_.size(); ++e) {
    if (line_way_[e] / config_.ways != (e & (num_sets_ - 1))) {
      return "line->way memo entry " + std::to_string(e) + " points at way " +
             std::to_string(line_way_[e]) + ", outside set " +
             std::to_string(e & (num_sets_ - 1));
    }
  }
  return {};
}

std::size_t CacheLevel::occupancy() const {
  std::size_t n = 0;
  for (const auto& way : ways_) n += way.valid ? 1 : 0;
  return n;
}

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& config)
    : config_(config), l1d_(config.l1d), l1i_(config.l1i), l2_(config.l2) {}

AccessOutcome MemoryHierarchy::access_data(std::uint64_t addr) {
  AccessOutcome out;
  out.l1_hit = l1d_.access(addr);
  if (out.l1_hit) {
    out.latency = config_.timings.l1_hit;
    return out;
  }
  out.l2_hit = l2_.access(addr);
  out.latency = out.l2_hit ? config_.timings.l2_hit : config_.timings.memory;
  return out;
}

void MemoryHierarchy::flush_data(std::uint64_t addr) {
  l1d_.flush_line(addr);
  l2_.flush_line(addr);
}

std::size_t MemoryHierarchy::flush_l1() {
  const std::size_t dropped = l1d_.occupancy() + l1i_.occupancy();
  l1d_.clear();
  l1i_.clear();
  return dropped;
}

void MemoryHierarchy::clear() {
  l1d_.clear();
  l1i_.clear();
  l2_.clear();
}

void MemoryHierarchy::publish_metrics(const std::string& prefix) const {
  auto& reg = obs::MetricsRegistry::instance();
  const auto publish = [&](const char* level, const CacheLevelStats& s) {
    const std::string base = prefix + "." + level;
    reg.counter(base + ".hits").add(s.hits);
    reg.counter(base + ".misses").add(s.misses);
    reg.counter(base + ".evictions").add(s.evictions);
    reg.counter(base + ".partition_fills").add(s.partition_fills);
    reg.counter(base + ".partition_blocked").add(s.partition_blocked);
  };
  publish("l1d", l1d_.stats());
  publish("l1i", l1i_.stats());
  publish("l2", l2_.stats());
}

std::string MemoryHierarchy::check_invariants() const {
  if (auto v = l1d_.check_invariants(); !v.empty()) return "l1d: " + v;
  if (auto v = l1i_.check_invariants(); !v.empty()) return "l1i: " + v;
  if (auto v = l2_.check_invariants(); !v.empty()) return "l2: " + v;
  return {};
}

}  // namespace crs::sim
