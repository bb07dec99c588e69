#include "sim/branch_predictor.hpp"

#include "obs/metrics.hpp"
#include "support/error.hpp"

namespace crs::sim {

namespace {
bool is_pow2(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

PatternHistoryTable::PatternHistoryTable(std::uint32_t entries) {
  CRS_ENSURE(is_pow2(entries), "PHT entries must be a power of two");
  counters_.assign(entries, 1);  // weakly not-taken
}

std::uint64_t PatternHistoryTable::flush() {
  std::uint64_t trained = 0;
  for (std::uint8_t& c : counters_) {
    if (c != 1) {
      ++trained;
      c = 1;  // back to weakly not-taken
    }
  }
  return trained;
}

BranchTargetBuffer::BranchTargetBuffer(std::uint32_t entries) {
  CRS_ENSURE(is_pow2(entries), "BTB entries must be a power of two");
  entries_.resize(entries);
}

std::uint64_t BranchTargetBuffer::index(std::uint64_t pc) const {
  return (pc >> 3) & (entries_.size() - 1);
}

std::optional<std::uint64_t> BranchTargetBuffer::predict(
    std::uint64_t pc) const {
  const Entry& e = entries_[index(pc)];
  if (e.valid && e.pc == pc) return e.target;
  return std::nullopt;
}

void BranchTargetBuffer::update(std::uint64_t pc, std::uint64_t target) {
  ++updates_;
  Entry& e = entries_[index(pc)];
  e.valid = true;
  e.pc = pc;
  e.target = target;
}

std::uint64_t BranchTargetBuffer::flush() {
  std::uint64_t trained = 0;
  for (Entry& e : entries_) {
    if (e.valid) {
      ++trained;
      e = Entry{};
    }
  }
  return trained;
}

ReturnStackBuffer::ReturnStackBuffer(std::uint32_t entries) {
  CRS_ENSURE(entries > 0, "RSB must have at least one entry");
  ring_.assign(entries, 0);
}

void ReturnStackBuffer::push(std::uint64_t return_address) {
  ++pushes_;
  if (depth_ == ring_.size()) ++wraps_;
  ring_[top_] = return_address;
  top_ = (top_ + 1) % ring_.size();
  if (depth_ < ring_.size()) ++depth_;
}

std::optional<std::uint64_t> ReturnStackBuffer::pop() {
  if (depth_ == 0) {
    ++underflows_;
    return std::nullopt;
  }
  ++pops_;
  top_ = (top_ + ring_.size() - 1) % ring_.size();
  --depth_;
  return ring_[top_];
}

void ReturnStackBuffer::clear() {
  top_ = 0;
  depth_ = 0;
}

BranchPredictor::BranchPredictor(const PredictorConfig& config)
    : pht_(config.pht_entries),
      btb_(config.btb_entries),
      rsb_(config.rsb_entries) {}

std::uint64_t BranchPredictor::flush_all() {
  const std::uint64_t rsb_depth = rsb_.depth();
  rsb_.clear();
  return pht_.flush() + btb_.flush() + rsb_depth;
}

void BranchPredictor::publish_metrics(const std::string& prefix) const {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter(prefix + ".pht.updates").add(pht_.updates());
  reg.counter(prefix + ".btb.updates").add(btb_.updates());
  reg.counter(prefix + ".rsb.pushes").add(rsb_.pushes());
  reg.counter(prefix + ".rsb.pops").add(rsb_.pops());
  reg.counter(prefix + ".rsb.underflows").add(rsb_.underflows());
  reg.counter(prefix + ".rsb.wraps").add(rsb_.wraps());
}

}  // namespace crs::sim
