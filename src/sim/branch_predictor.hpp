// Branch prediction structures: the micro-architectural state Spectre
// mistrains.
//
// - Pattern history table (PHT) of 2-bit saturating counters drives
//   conditional-branch prediction — Spectre-PHT (v1) trains the bounds
//   check "in bounds" and then supplies an out-of-bounds index.
// - Branch target buffer (BTB) predicts indirect-jump targets.
// - Return stack buffer (RSB) predicts RET targets — Spectre-RSB exploits
//   the mismatch between the RSB and an overwritten on-stack return
//   address, which is exactly the state the ROP overflow creates.
#pragma once

#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>


namespace crs::sim {

struct PredictorConfig {
  std::uint32_t pht_entries = 4096;  ///< power of two
  std::uint32_t btb_entries = 512;   ///< power of two
  std::uint32_t rsb_entries = 16;

  auto operator<=>(const PredictorConfig&) const = default;
};

/// 2-bit saturating counter PHT, indexed by (pc >> 3) & mask.
class PatternHistoryTable {
 public:
  explicit PatternHistoryTable(std::uint32_t entries);

  // Inline: both engines consult and train the PHT once per conditional
  // branch, about one instruction in seven.
  bool predict_taken(std::uint64_t pc) const {
    return counters_[index(pc)] >= 2;
  }
  void update(std::uint64_t pc, bool taken) {
    ++updates_;
    std::uint8_t& c = counters_[index(pc)];
    if (taken) {
      if (c < 3) ++c;
    } else {
      if (c > 0) --c;
    }
  }
  /// Counter value (0..3) for tests.
  std::uint8_t counter(std::uint64_t pc) const { return counters_[index(pc)]; }
  std::uint64_t updates() const { return updates_; }

  /// Context-switch hygiene: resets every counter to the weakly-not-taken
  /// init state. Returns the number of counters that held trained state.
  std::uint64_t flush();

 private:
  std::uint64_t index(std::uint64_t pc) const {
    return (pc >> 3) & (counters_.size() - 1);
  }
  std::vector<std::uint8_t> counters_;  // init 1 = weakly not-taken
  std::uint64_t updates_ = 0;
};

/// Direct-mapped BTB: pc -> last observed target.
class BranchTargetBuffer {
 public:
  explicit BranchTargetBuffer(std::uint32_t entries);

  std::optional<std::uint64_t> predict(std::uint64_t pc) const;
  void update(std::uint64_t pc, std::uint64_t target);
  std::uint64_t updates() const { return updates_; }

  /// Invalidates every entry; returns how many were valid.
  std::uint64_t flush();

 private:
  std::uint64_t updates_ = 0;
  struct Entry {
    bool valid = false;
    std::uint64_t pc = 0;
    std::uint64_t target = 0;
  };
  std::uint64_t index(std::uint64_t pc) const;
  std::vector<Entry> entries_;
};

/// Circular return stack buffer. Overflow wraps (overwriting the oldest
/// entry); underflow returns nullopt.
class ReturnStackBuffer {
 public:
  explicit ReturnStackBuffer(std::uint32_t entries);

  void push(std::uint64_t return_address);
  std::optional<std::uint64_t> pop();
  std::size_t depth() const { return depth_; }
  void clear();

  std::uint64_t pushes() const { return pushes_; }
  std::uint64_t pops() const { return pops_; }
  /// Pops on an empty RSB — the misprediction window Spectre-RSB abuses.
  std::uint64_t underflows() const { return underflows_; }
  /// Pushes that overwrote the oldest live entry.
  std::uint64_t wraps() const { return wraps_; }

 private:
  std::vector<std::uint64_t> ring_;
  std::size_t top_ = 0;    // next push slot
  std::size_t depth_ = 0;  // live entries, <= ring_.size()
  std::uint64_t pushes_ = 0;
  std::uint64_t pops_ = 0;
  std::uint64_t underflows_ = 0;
  std::uint64_t wraps_ = 0;
};

/// Facade bundling the three structures, as the CPU sees them.
class BranchPredictor {
 public:
  explicit BranchPredictor(const PredictorConfig& config = {});

  PatternHistoryTable& pht() { return pht_; }
  BranchTargetBuffer& btb() { return btb_; }
  ReturnStackBuffer& rsb() { return rsb_; }
  const PatternHistoryTable& pht() const { return pht_; }
  const BranchTargetBuffer& btb() const { return btb_; }
  const ReturnStackBuffer& rsb() const { return rsb_; }

  /// Flushes PHT + BTB and clears the RSB (kernel-entry hygiene, as the
  /// Ward kernel does on every crossing). Returns the total number of
  /// trained entries dropped across the three structures.
  std::uint64_t flush_all();

  /// Adds the structures' update/traffic counters into the MetricsRegistry
  /// under `<prefix>.pht.*` / `.btb.*` / `.rsb.*` (no-op when disabled).
  void publish_metrics(const std::string& prefix) const;

 private:
  PatternHistoryTable pht_;
  BranchTargetBuffer btb_;
  ReturnStackBuffer rsb_;
};

}  // namespace crs::sim
