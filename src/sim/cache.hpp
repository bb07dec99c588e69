// Set-associative cache timing model.
//
// The caches hold no data (the architectural state lives in sim::Memory);
// they model *presence and latency*, which is all the flush+reload covert
// channel and the HPC cache-event counters need. Speculative (wrong-path)
// loads go through the same hierarchy, so transiently-accessed lines stay
// resident after a squash — the micro-architectural side effect Spectre
// leaks through.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>


namespace crs::sim {

struct CacheConfig {
  std::uint32_t size_bytes = 32 * 1024;
  std::uint32_t line_size = 64;
  std::uint32_t ways = 8;
  /// Way partitioning (mitigation): ways reserved for the victim domain
  /// (addresses below the runtime partition boundary). 0 disables. The
  /// remaining `ways - partition_ways` serve the other domain, so neither
  /// side can evict the other's lines. Fills are restricted per domain;
  /// hits are found wherever the line lives (lines resident before the
  /// boundary was set stay usable).
  std::uint32_t partition_ways = 0;

  auto operator<=>(const CacheConfig&) const = default;
};

/// Per-level access statistics. Plain (non-atomic) counters: a CacheLevel
/// belongs to exactly one Machine and machines never cross threads, so the
/// counts are deterministic; they are folded into the MetricsRegistry once
/// per run by Machine::publish_metrics.
struct CacheLevelStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< misses that displaced a valid line
  // Partition counters are maintained unconditionally (not obs-gated):
  // they only tick when way partitioning is armed, which is off the
  // default hot path, and the defense matrix reads them as ground truth
  // regardless of the observability build flavour.
  std::uint64_t partition_fills = 0;  ///< fills under an active partition
  /// Fills where the set-wide LRU victim lived in the other domain's ways
  /// — the cross-domain evictions the partition prevented.
  std::uint64_t partition_blocked = 0;
};

/// One level of set-associative cache with LRU replacement.
class CacheLevel {
 public:
  explicit CacheLevel(const CacheConfig& config);

  /// Touches the line containing `addr`: returns true on hit. On miss the
  /// line is filled (LRU victim evicted).
  ///
  /// The line->way memo is inlined ahead of the associative search: it
  /// serves a line that was last found or filled at the way it remembers
  /// (instruction fetch walks 8 slots per 64-byte line, and loops revisit
  /// their lines). A memo hit updates the replacement state exactly as a
  /// search hit would, and the valid+tag recheck makes eviction/flush of the
  /// memoized way fall through to the search. A set never holds one tag
  /// twice, so a way of the line's own set that holds its tag is the way
  /// the search would find.
  bool access(std::uint64_t addr) {
    const std::uint64_t line = addr >> line_shift_;
    const std::uint16_t memo_way = line_way_[line & line_memo_mask_];
    Way& way = ways_[memo_way];
    if (way.valid && way.tag == (line >> sets_shift_)) {
      way.lru = ++use_counter_;
      ++stats_.hits;
      mru_way_ = memo_way;
      return true;
    }
    return access_search(addr);
  }

  /// Credits `n` deferred accesses that are guaranteed memo hits. The
  /// threaded-code block engine batches consecutive instruction fetches of
  /// one line: only fetches ever touch the L1I mid-block, and the full
  /// access() that opened the line memoized it, so each deferred access
  /// would have hit the way that access left in `mru_way_`. Leaves the
  /// level in exactly the state n eager access() calls would have produced.
  /// On a fresh or clear()-ed level (no way to stamp — the opening access()
  /// was dropped, so the caller's guarantee is void) the batch still
  /// advances the use counter and stats; the next real access re-arms.
  void access_repeat_hits(std::uint64_t n) {
    use_counter_ += n;
    if (mru_way_ != kNoWay) ways_[mru_way_].lru = use_counter_;
    stats_.hits += n;
  }

  /// True when the line is resident. No state change (for tests/debug).
  bool probe(std::uint64_t addr) const;

  /// Evicts the line containing `addr` if resident.
  void flush_line(std::uint64_t addr);

  /// Invalidates everything.
  void clear();

  std::uint32_t line_size() const { return config_.line_size; }
  std::uint32_t num_sets() const { return num_sets_; }

  /// Structural self-check for the fuzzer's algebraic oracle: every set
  /// holds distinct valid tags, no LRU stamp runs ahead of the global use
  /// counter, and every line->way memo entry points at a way of the set its
  /// lines map to. Returns "" when consistent, else a description of the
  /// first violation.
  std::string check_invariants() const;

  /// Valid lines currently resident (for occupancy bounds).
  std::size_t occupancy() const;

  /// Arms way partitioning (requires config.partition_ways != 0 to have an
  /// effect): addresses below `boundary` fill into ways
  /// [0, partition_ways), everything else into [partition_ways, ways).
  void set_partition_boundary(std::uint64_t boundary) {
    partition_boundary_ = boundary;
    partition_armed_ = config_.partition_ways != 0 &&
                       config_.partition_ways < config_.ways;
  }
  bool partition_armed() const { return partition_armed_; }

  /// Cumulative access statistics.
  const CacheLevelStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  struct Way {
    bool valid = false;
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  // larger = more recently used
  };

  std::uint64_t set_index(std::uint64_t addr) const;
  std::uint64_t tag_of(std::uint64_t addr) const;

  /// Associative-search path for `access` (memo miss).
  bool access_search(std::uint64_t addr);

  CacheConfig config_;
  std::uint32_t num_sets_ = 0;
  // line_size and num_sets are enforced powers of two; the hot path uses
  // shifts instead of dividing by the runtime config values.
  std::uint32_t line_shift_ = 0;  ///< log2(line_size)
  std::uint32_t sets_shift_ = 0;  ///< log2(num_sets)
  std::uint64_t use_counter_ = 0;
  std::vector<Way> ways_;  // num_sets_ * config_.ways, row-major by set
  // mru_way_ and the line->way memo hold ways_ indices, never pointers, so
  // a copied level (a checkpoint, a restore) is self-consistent with no
  // scrub.
  static constexpr std::uint32_t kNoWay = ~0u;
  // The way the last access() hit or filled, which access_repeat_hits
  // stamps; kNoWay on a fresh or clear()-ed level.
  std::uint32_t mru_way_ = kNoWay;
  // Line->way memo (pure speed): entry `line & line_memo_mask_` holds the
  // ways_ index where a line of that entry was last found or filled. The
  // mask covers the set bits, so an entry's lines all map to one set, and
  // every entry points into that set from construction on: a way of
  // another set could hold a line of the same tag.
  std::vector<std::uint16_t> line_way_;
  std::uint64_t line_memo_mask_ = 0;
  // Way partitioning (off until set_partition_boundary arms it).
  bool partition_armed_ = false;
  std::uint64_t partition_boundary_ = 0;
  CacheLevelStats stats_;
};

/// Latencies in cycles for each residence level.
struct HierarchyTimings {
  std::uint32_t l1_hit = 3;
  std::uint32_t l2_hit = 14;
  std::uint32_t memory = 120;
  std::uint32_t fetch_l1_hit = 0;  ///< fetch hit adds no stall (pipelined)
  std::uint32_t fetch_l1_miss = 8;
  std::uint32_t flush_cost = 36;

  auto operator<=>(const HierarchyTimings&) const = default;
};

struct HierarchyConfig {
  CacheConfig l1d{32 * 1024, 64, 8};
  CacheConfig l1i{32 * 1024, 64, 8};
  CacheConfig l2{256 * 1024, 64, 8};
  HierarchyTimings timings;

  auto operator<=>(const HierarchyConfig&) const = default;
};

/// What a data access did, so the CPU can attribute PMU events.
struct AccessOutcome {
  bool l1_hit = false;
  bool l2_hit = false;
  std::uint32_t latency = 0;
};

/// Two-level data hierarchy plus an instruction cache. Inclusive-ish: fills
/// propagate to both levels; clflush evicts from both (as x86 clflush
/// evicts from the whole hierarchy).
class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const HierarchyConfig& config = {});

  AccessOutcome access_data(std::uint64_t addr);

  /// Instruction fetch: returns {hit, stall_cycles}. Inlined — this runs
  /// once per simulated instruction.
  struct FetchOutcome {
    bool l1i_hit = false;
    std::uint32_t latency = 0;
  };
  FetchOutcome access_fetch(std::uint64_t addr) {
    FetchOutcome out;
    out.l1i_hit = l1i_.access(addr);
    if (out.l1i_hit) {
      out.latency = config_.timings.fetch_l1_hit;
      return out;
    }
    // Instruction misses are backed by the shared L2 as well.
    const bool l2_hit = l2_.access(addr);
    out.latency = config_.timings.fetch_l1_miss +
                  (l2_hit ? 0 : config_.timings.memory / 4);
    return out;
  }

  /// Batched same-line fetch hits (see CacheLevel::access_repeat_hits and
  /// FetchBatch).
  void fetch_repeat_hits(std::uint64_t n) { l1i_.access_repeat_hits(n); }

  /// clflush semantics: evict the data line everywhere.
  void flush_data(std::uint64_t addr);

  /// Kernel-entry hygiene (mitigation): invalidates both L1 caches, leaving
  /// the L2 warm, as an L1-flush-on-context-switch kernel would. Returns
  /// the number of valid lines dropped.
  std::size_t flush_l1();

  /// Arms way partitioning on the data-side levels (L1D + L2) whose config
  /// reserves partition_ways. Addresses below `boundary` are the victim
  /// domain. The L1I is left unpartitioned: the covert channels here are
  /// data-side.
  void set_partition_boundary(std::uint64_t boundary) {
    l1d_.set_partition_boundary(boundary);
    l2_.set_partition_boundary(boundary);
  }

  void clear();

  const HierarchyTimings& timings() const { return config_.timings; }
  std::uint32_t line_size() const { return config_.l1d.line_size; }

  /// Residence probes for tests and the covert-channel unit tests.
  bool l1d_resident(std::uint64_t addr) const { return l1d_.probe(addr); }
  bool l2_resident(std::uint64_t addr) const { return l2_.probe(addr); }

  /// Per-level stats for observability cross-checks and publishing.
  const CacheLevel& l1d() const { return l1d_; }
  const CacheLevel& l1i() const { return l1i_; }
  const CacheLevel& l2() const { return l2_; }

  /// Adds this hierarchy's per-level hit/miss/eviction totals into the
  /// MetricsRegistry under `<prefix>.l1d.*` / `.l1i.*` / `.l2.*`. Call once
  /// per machine at the end of a run.
  void publish_metrics(const std::string& prefix) const;

  /// Runs check_invariants on every level; "" when all are consistent.
  std::string check_invariants() const;

 private:
  HierarchyConfig config_;
  CacheLevel l1d_;
  CacheLevel l1i_;
  CacheLevel l2_;
};

/// Instruction fetch with same-line batching, for a run of fetches during
/// which nothing else touches the L1I (a block chain between its exits, a
/// wrong-path episode). A fetch of the line the previous fetch opened would
/// hit the way that fetch left as the L1I's MRU way, so it is only counted,
/// and the count lands in one fetch_repeat_hits call when the line changes
/// or the caller flushes: the L1I then holds exactly the state eager
/// fetches would have left. A batch starts unarmed (its first fetch is a
/// full access). Flush before anything else reads or touches the L1I, and
/// restart after something else touched it.
///
/// Forced inline, and `fetch` returns a plain latency: the block engine's
/// dispatch function is too large for the compiler to inline these by
/// itself, and an out-of-line copy or a returned `{hit, latency}` pair
/// costs a call or stack traffic on every simulated instruction.
class FetchBatch {
 public:
  explicit FetchBatch(MemoryHierarchy& hierarchy)
      : hierarchy_(hierarchy),
        line_mask_(~static_cast<std::uint64_t>(hierarchy.l1i().line_size() - 1)),
        hit_latency_(hierarchy.timings().fetch_l1_hit) {}

  /// Fetches the instruction at `pc`; returns its stall cycles.
  __attribute__((always_inline)) std::uint32_t fetch(std::uint64_t pc) {
    if ((pc & line_mask_) == line_) [[likely]] {
      ++pending_;
      return hit_latency_;
    }
    flush();
    line_ = pc & line_mask_;
    const MemoryHierarchy::FetchOutcome out = hierarchy_.access_fetch(pc);
    if (!out.l1i_hit) ++misses_;
    return out.latency;
  }

  __attribute__((always_inline)) void flush() {
    if (pending_ != 0) {
      hierarchy_.fetch_repeat_hits(pending_);
      pending_ = 0;
    }
  }

  /// Disarms the batch: the next fetch is a full access.
  void restart() { line_ = ~0ull; }

  /// L1I misses since the last call (for the caller's PMU), then zero.
  std::uint64_t take_misses() {
    const std::uint64_t n = misses_;
    misses_ = 0;
    return n;
  }

 private:
  MemoryHierarchy& hierarchy_;
  std::uint64_t line_mask_;
  std::uint32_t hit_latency_;
  std::uint64_t line_ = ~0ull;  // never matches a masked pc
  std::uint64_t pending_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace crs::sim
