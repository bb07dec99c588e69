// Machine replication (DESIGN.md §10): one frozen baseline, any number of
// copy-on-write forks of it, and O(dirty pages) rollback to it.
//
// `Machine::freeze()` captures a machine's full state into an immutable,
// refcounted MachineBaseline — the memory as a sparse MemoryImage (pristine
// pages alias one shared zero page), plus caches, partition state and
// per-level stats, PHT/BTB/RSB, PMU counters and every CPU register/counter.
// `Machine(const MachineBaseline&)` forks it in O(metadata): memory pages
// alias the image until their first write. A MachineSnapshot is a rollback
// point: a reference to a baseline plus the page versions the machine had
// when it matched that baseline. `Machine::restore()` copies back, from the
// baseline image, only the pages whose content version moved since — the
// per-page versions that keep the decode cache coherent double as a dirty
// bitmap — and reinstates the micro-architectural and CPU state.
//
// Invariant: restore BUMPS the version of every page it rewrites (and
// re-baselines the snapshot to the new value); it never rolls a version
// back. The decode and block caches validate their entries with a version
// equality compare, so reusing an old version number could let entries
// decoded from a later run's bytes appear fresh for the restored bytes.
// Monotonically advancing versions make every restored page miss once and
// re-decode from the restored contents — self-modifying code and fence-hint
// rewrites can never leak across a restore — while entries for untouched
// pages stay warm.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/kernel.hpp"

namespace crs::sim {

/// Frozen, shareable copy of one machine's full state, captured by
/// Machine::freeze(). Immutable after creation, so any number of forks on
/// any threads can replicate from it concurrently; a fork costs the
/// metadata tables and the micro-architectural copy, never the 16 MB
/// address space.
class MachineBaseline {
 public:
  MachineBaseline(const MachineBaseline&) = delete;
  MachineBaseline& operator=(const MachineBaseline&) = delete;

  const MachineConfig& config() const { return config_; }
  const std::shared_ptr<const MemoryImage>& image() const { return image_; }
  /// Current references to the shared image: this baseline plus every live
  /// fork (the soak tests bound it to prove forks release their frames).
  long image_use_count() const { return image_.use_count(); }

 private:
  friend class SnapshotAccess;

  explicit MachineBaseline(const Machine& machine);

  struct CpuImage {
    std::uint64_t regs[isa::kNumRegisters] = {};
    std::uint64_t reg_ready[isa::kNumRegisters] = {};
    std::uint64_t pc = 0;
    std::uint64_t cycle = 0;
    std::uint64_t retired = 0;
    std::uint64_t spec_episodes = 0;
    CpuMitigationStats mstats;
    bool halted = true;
    Fault fault;
  };

  MachineConfig config_;
  std::shared_ptr<const MemoryImage> image_;
  MemoryHierarchy hierarchy_;
  BranchPredictor predictor_;
  Pmu pmu_;
  CpuImage cpu_;
};

/// Rollback point for one machine: a baseline plus the per-page versions
/// the machine had when it matched that baseline. Created by
/// `Machine::snapshot()` (which freezes the machine) or directly from the
/// baseline a machine was forked from; consumed (repeatedly) by
/// `Machine::restore()` on that machine. The snapshot holds no page bytes,
/// and each restore re-baselines its versions, so back-to-back attempt
/// loops stay O(pages touched per attempt).
class MachineSnapshot {
 public:
  /// The state of a machine forked from `base`, as it was at the fork.
  explicit MachineSnapshot(std::shared_ptr<const MachineBaseline> base);

  const std::shared_ptr<const MachineBaseline>& baseline() const {
    return base_;
  }
  /// Pages rewritten by the most recent restore.
  std::size_t last_restored_pages() const { return last_restored_pages_; }
  std::uint64_t restore_count() const { return restore_count_; }

 private:
  friend class SnapshotAccess;

  std::shared_ptr<const MachineBaseline> base_;
  std::vector<std::uint32_t> versions_;  // per-page version at last (re)base
  std::size_t last_restored_pages_ = 0;
  std::uint64_t restore_count_ = 0;
};

/// A frozen clean machine for `config`: `Machine(config).freeze()`. The
/// library builds its clean machines directly; this is kept for the
/// benchmark harness (crbench's census and replay), which times and forks
/// it.
std::shared_ptr<const MachineBaseline> shared_baseline(
    const MachineConfig& config);

/// FNV-1a digests for shard routing (core::job_affinity_key) and content
/// checks. Neither decides a cache hit.
std::uint64_t hash_machine_config(const MachineConfig& config);
std::uint64_t hash_program(const Program& program);

}  // namespace crs::sim
