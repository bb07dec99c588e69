#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "sim/cache.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace crs::sim {
namespace {

TEST(CacheLevel, MissThenHit) {
  CacheLevel c({1024, 64, 2});
  EXPECT_FALSE(c.access(0));
  EXPECT_TRUE(c.access(0));
  EXPECT_TRUE(c.access(63));   // same line
  EXPECT_FALSE(c.access(64));  // next line
}

TEST(CacheLevel, ProbeDoesNotFill) {
  CacheLevel c({1024, 64, 2});
  EXPECT_FALSE(c.probe(0));
  EXPECT_FALSE(c.access(0));  // still a miss: probe did not fill
  EXPECT_TRUE(c.probe(0));
}

TEST(CacheLevel, LruEvictsOldest) {
  // 2-way, 8 sets: lines 0, 8, 16 (in line units) map to set 0.
  CacheLevel c({1024, 64, 2});
  const std::uint64_t way_stride = 64 * c.num_sets();
  c.access(0);
  c.access(way_stride);
  c.access(0);               // 0 is now MRU
  c.access(2 * way_stride);  // evicts way_stride
  EXPECT_TRUE(c.probe(0));
  EXPECT_FALSE(c.probe(way_stride));
  EXPECT_TRUE(c.probe(2 * way_stride));
}

TEST(CacheLevel, FlushLineEvicts) {
  CacheLevel c({1024, 64, 2});
  c.access(128);
  EXPECT_TRUE(c.probe(128));
  c.flush_line(130);  // same line
  EXPECT_FALSE(c.probe(128));
}

TEST(CacheLevel, FlushMissingLineIsNoop) {
  CacheLevel c({1024, 64, 2});
  EXPECT_NO_THROW(c.flush_line(4096));
}

TEST(CacheLevel, ClearInvalidatesEverything) {
  CacheLevel c({1024, 64, 2});
  for (std::uint64_t a = 0; a < 1024; a += 64) c.access(a);
  c.clear();
  for (std::uint64_t a = 0; a < 1024; a += 64) EXPECT_FALSE(c.probe(a));
}

TEST(CacheLevel, RejectsBadGeometry) {
  EXPECT_THROW(CacheLevel({1000, 60, 2}), crs::Error);
  EXPECT_THROW(CacheLevel({1024, 64, 0}), crs::Error);
}

TEST(Hierarchy, LatenciesReflectResidence) {
  MemoryHierarchy h;
  const auto& t = h.timings();

  const auto miss = h.access_data(0x1000);
  EXPECT_FALSE(miss.l1_hit);
  EXPECT_FALSE(miss.l2_hit);
  EXPECT_EQ(miss.latency, t.memory);

  const auto hit = h.access_data(0x1000);
  EXPECT_TRUE(hit.l1_hit);
  EXPECT_EQ(hit.latency, t.l1_hit);
}

TEST(Hierarchy, L2HitAfterL1Eviction) {
  HierarchyConfig cfg;
  cfg.l1d = {512, 64, 1};  // tiny direct-mapped L1: easy to evict
  MemoryHierarchy h(cfg);
  h.access_data(0);
  h.access_data(512);  // evicts 0 from L1 (same set), both still in L2
  const auto out = h.access_data(0);
  EXPECT_FALSE(out.l1_hit);
  EXPECT_TRUE(out.l2_hit);
  EXPECT_EQ(out.latency, h.timings().l2_hit);
}

TEST(Hierarchy, FlushDataEvictsAllLevels) {
  MemoryHierarchy h;
  h.access_data(0x2000);
  EXPECT_TRUE(h.l1d_resident(0x2000));
  EXPECT_TRUE(h.l2_resident(0x2000));
  h.flush_data(0x2000);
  EXPECT_FALSE(h.l1d_resident(0x2000));
  EXPECT_FALSE(h.l2_resident(0x2000));
  const auto out = h.access_data(0x2000);
  EXPECT_EQ(out.latency, h.timings().memory);
}

TEST(Hierarchy, FlushReloadDistinguishesTouchedLine) {
  // The covert channel's core property: after flushing two lines and
  // touching one, reload latency separates them.
  MemoryHierarchy h;
  const std::uint64_t a = 0x4000, b = 0x8000;
  h.access_data(a);
  h.access_data(b);
  h.flush_data(a);
  h.flush_data(b);
  h.access_data(a);  // "victim" touches a
  const auto ra = h.access_data(a);
  const auto rb = h.access_data(b);
  EXPECT_LT(ra.latency, rb.latency);
}

TEST(Hierarchy, FetchHitsAfterFirstAccess) {
  MemoryHierarchy h;
  const auto first = h.access_fetch(0x100);
  EXPECT_FALSE(first.l1i_hit);
  EXPECT_GT(first.latency, 0u);
  const auto second = h.access_fetch(0x100);
  EXPECT_TRUE(second.l1i_hit);
  EXPECT_EQ(second.latency, h.timings().fetch_l1_hit);
}

TEST(Hierarchy, ClearResetsEverything) {
  MemoryHierarchy h;
  h.access_data(0x100);
  h.access_fetch(0x100);
  h.clear();
  EXPECT_FALSE(h.l1d_resident(0x100));
  EXPECT_FALSE(h.access_fetch(0x100).l1i_hit);
}

TEST(CacheLevel, RepeatHitsOnUnarmedMemoAreSafe) {
  // Regression: access_repeat_hits dereferenced the MRU memo
  // unconditionally; on a fresh (never-accessed) level that pointer is
  // null. The batch must still advance the use counter without crashing.
  CacheLevel fresh(CacheConfig{1024, 64, 2});
  fresh.access_repeat_hits(5);
  EXPECT_EQ(fresh.check_invariants(), "");
  EXPECT_FALSE(fresh.access(0x100));  // level still works (cold miss)
}

TEST(CacheLevel, ClearDisarmsTheMemo) {
  CacheLevel level(CacheConfig{1024, 64, 2});
  level.access(0x100);  // arms the memo
  level.clear();        // ...which clear() must scrub, not leave dangling
  EXPECT_EQ(level.check_invariants(), "");
  level.access_repeat_hits(3);  // unarmed fallback: no stamp, no crash
  EXPECT_EQ(level.check_invariants(), "");
  EXPECT_EQ(level.occupancy(), 0u);
  // A real access re-arms the memo and repeat credits stamp again.
  level.access(0x100);
  level.access_repeat_hits(2);
  EXPECT_EQ(level.check_invariants(), "");
  EXPECT_TRUE(level.access(0x100));
}

TEST(Hierarchy, RepeatHitsAfterL1FlushAreSafe) {
  // flush_l1 (the context-switch hygiene mitigation) clear()s the L1I; a
  // block engine batch crediting immediately after must hit the unarmed
  // fallback, not a stale way.
  MemoryHierarchy h;
  h.access_fetch(0x200);
  h.flush_l1();
  h.fetch_repeat_hits(4);
  EXPECT_EQ(h.check_invariants(), "");
}

TEST(Hierarchy, DistinctLinesDoNotAlias) {
  MemoryHierarchy h;
  // 256 probe lines at 64-byte stride must be independently trackable
  // (the attack's probe array).
  for (int i = 0; i < 256; ++i) h.access_data(0x10000 + 64ull * i);
  for (int i = 0; i < 256; ++i)
    EXPECT_TRUE(h.l1d_resident(0x10000 + 64ull * i)) << i;
}

// Memo-less reference for CacheLevel: the same geometry, LRU replacement
// and way partitioning, with every access scanning its set. The victim of
// a fill is the last invalid way of the allowed range, else the way there
// with the oldest stamp; an armed partition counts each fill, and counts
// it blocked when the set-wide choice lay outside the range.
class ReferenceLevel {
 public:
  explicit ReferenceLevel(const CacheConfig& config)
      : config_(config),
        sets_(config.size_bytes / (config.line_size * config.ways)),
        ways_(static_cast<std::size_t>(sets_) * config.ways) {}

  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr / config_.line_size;
    const std::size_t base = (line % sets_) * config_.ways;
    const std::uint64_t tag = line / sets_;
    ++clock_;
    for (std::size_t w = base; w < base + config_.ways; ++w) {
      if (ways_[w].valid && ways_[w].tag == tag) {
        ways_[w].stamp = clock_;
        last_ = w;
        ++stats.hits;
        return true;
      }
    }
    std::size_t lo = base;
    std::size_t hi = base + config_.ways;
    if (armed_) {
      if (addr < boundary_) {
        hi = base + config_.partition_ways;
      } else {
        lo = base + config_.partition_ways;
      }
      ++stats.partition_fills;
      const std::size_t anywhere = victim(base, base + config_.ways);
      if (anywhere < lo || anywhere >= hi) ++stats.partition_blocked;
    }
    const std::size_t v = victim(lo, hi);
    ++stats.misses;
    if (ways_[v].valid) ++stats.evictions;
    ways_[v] = {true, tag, clock_};
    last_ = v;
    return false;
  }

  /// `n` more hits on the line the last access touched.
  void repeat_hits(std::uint64_t n) {
    clock_ += n;
    ways_[last_].stamp = clock_;
    stats.hits += n;
  }

  bool probe(std::uint64_t addr) const { return find(addr) != ways_.size(); }

  void flush(std::uint64_t addr) {
    const std::size_t w = find(addr);
    if (w != ways_.size()) ways_[w].valid = false;
  }

  void clear() {
    for (Way& way : ways_) way = Way{};
    clock_ = 0;
  }

  void arm(std::uint64_t boundary) {
    boundary_ = boundary;
    armed_ = config_.partition_ways != 0 &&
             config_.partition_ways < config_.ways;
  }

  CacheLevelStats stats;

 private:
  struct Way {
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t stamp = 0;
  };

  /// The way holding `addr`'s line, or ways_.size().
  std::size_t find(std::uint64_t addr) const {
    const std::uint64_t line = addr / config_.line_size;
    const std::size_t base = (line % sets_) * config_.ways;
    for (std::size_t w = base; w < base + config_.ways; ++w) {
      if (ways_[w].valid && ways_[w].tag == line / sets_) return w;
    }
    return ways_.size();
  }

  std::size_t victim(std::size_t lo, std::size_t hi) const {
    std::size_t invalid = hi, oldest = hi;
    for (std::size_t w = lo; w < hi; ++w) {
      if (!ways_[w].valid) {
        invalid = w;
      } else if (oldest == hi || ways_[w].stamp < ways_[oldest].stamp) {
        oldest = w;
      }
    }
    return invalid != hi ? invalid : oldest;
  }

  CacheConfig config_;
  std::uint64_t sets_;
  std::vector<Way> ways_;
  std::uint64_t clock_ = 0;
  std::size_t last_ = 0;
  bool armed_ = false;
  std::uint64_t boundary_ = 0;
};

auto stats_tuple(const CacheLevelStats& s) {
  return std::tuple{s.hits, s.misses, s.evictions, s.partition_fills,
                    s.partition_blocked};
}

// The line->way memo, and the MRU way that repeat hits stamp, are pure
// speed: against the memo-less model, every access must hit or miss alike,
// with equal stats and a consistent structure, across lines of different
// sets that share a tag, flushes, clears, an armed partition and copies of
// the level. The opener fills one set and then touches the same tag in the
// next set, whose memo entry no access has written yet.
TEST(CacheLevel, LineMemoMatchesMemolessReference) {
  for (const CacheConfig& config :
       {CacheConfig{2048, 64, 4, 2}, CacheConfig{3072, 64, 3, 1}}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      auto level = std::make_unique<CacheLevel>(config);
      ReferenceLevel ref(config);
      const std::uint64_t sets = level->num_sets();
      const auto line_addr = [&](std::uint64_t tag, std::uint64_t set) {
        return (tag * sets + set) * config.line_size;
      };
      const auto check = [&](const std::string& what) {
        ASSERT_EQ(stats_tuple(level->stats()), stats_tuple(ref.stats)) << what;
        ASSERT_EQ(level->check_invariants(), "") << what;
      };
      const std::string label = "ways " + std::to_string(config.ways) +
                                " seed " + std::to_string(seed);

      for (std::uint64_t tag = 0; tag < config.ways; ++tag) {
        const std::uint64_t addr = line_addr(tag, 0);
        ASSERT_EQ(level->access(addr), ref.access(addr));
      }
      for (std::uint64_t tag = 0; tag < config.ways; ++tag) {
        const std::uint64_t addr = line_addr(tag, 1);
        ASSERT_EQ(level->access(addr), ref.access(addr))
            << label << ": tag " << tag << " of set 1 hit set 0's line";
      }
      ASSERT_NO_FATAL_FAILURE(check(label + " opener"));

      Rng rng(seed);
      for (int step = 0; step < 20000; ++step) {
        const std::string at = label + " step " + std::to_string(step);
        // Eight tags over every set: most tags live in several sets.
        const std::uint64_t addr =
            line_addr(rng.next_below(8), rng.next_below(sets)) +
            rng.next_below(config.line_size);
        const std::uint64_t op = rng.next_below(100);
        if (op < 70) {
          ASSERT_EQ(level->access(addr), ref.access(addr)) << at;
          if (rng.next_bernoulli(0.2)) {  // the block engine's fetch batch
            const std::uint64_t n = 1 + rng.next_below(7);
            level->access_repeat_hits(n);
            ref.repeat_hits(n);
          }
        } else if (op < 85) {
          level->flush_line(addr);
          ref.flush(addr);
        } else if (op < 90) {
          ASSERT_EQ(level->probe(addr), ref.probe(addr)) << at;
        } else if (op < 92) {
          level->clear();
          ref.clear();
        } else if (op < 94) {
          const std::uint64_t boundary = rng.next_below(line_addr(8, 0));
          level->set_partition_boundary(boundary);
          ref.arm(boundary);
        } else {
          // A copy carries both memos; the original is scribbled on and
          // dropped, so nothing of the copy may still refer to it.
          auto copy = std::make_unique<CacheLevel>(*level);
          level->clear();
          for (std::uint64_t s = 0; s < sets; ++s) {
            level->access(line_addr(9, s));
          }
          level = std::move(copy);
        }
        ASSERT_NO_FATAL_FAILURE(check(at));
      }
    }
  }
}

}  // namespace
}  // namespace crs::sim
