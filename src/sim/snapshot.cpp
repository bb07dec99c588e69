#include "sim/snapshot.hpp"

#include <cstring>
#include <utility>

#include "support/memo.hpp"

namespace crs::sim {

/// Sole holder of friend access into the sim privates replication needs:
/// CacheLevel's MRU memo and the Cpu counters that survive Cpu::reset.
/// Everything else copies through the (value-semantic) sub-objects.
class SnapshotAccess {
 public:
  static std::shared_ptr<const MachineBaseline> freeze(const Machine& m) {
    return std::shared_ptr<const MachineBaseline>(new MachineBaseline(m));
  }

  static void scrub_mru(MemoryHierarchy& hierarchy) {
    for (CacheLevel* level :
         {&hierarchy.l1d_, &hierarchy.l1i_, &hierarchy.l2_}) {
      level->mru_line_ = ~0ull;
      level->mru_way_ = nullptr;
    }
  }

  static void capture_cpu(const Cpu& cpu, MachineBaseline::CpuImage& img) {
    std::memcpy(img.regs, cpu.regs_, sizeof(img.regs));
    std::memcpy(img.reg_ready, cpu.reg_ready_, sizeof(img.reg_ready));
    img.pc = cpu.pc_;
    img.cycle = cpu.cycle_;
    img.retired = cpu.retired_;
    img.spec_episodes = cpu.spec_episodes_;
    img.mstats = cpu.mstats_;
    img.halted = cpu.halted_;
    img.fault = cpu.fault_;
  }

  /// Everything but memory: the fork constructor's second half (its memory
  /// already aliases the image) and the tail of every restore. Whole-object
  /// copy-back of caches (contents, LRU stamps, partition state, per-level
  /// stats), predictor tables, PMU counters and CPU state. The baseline's
  /// MRU memo was scrubbed at freeze, so the copies start scrubbed too (the
  /// next access repopulates it through the search path). The decode and
  /// block caches are deliberately NOT touched: page-version bumps already
  /// invalidate entries for every restored page, and entries for clean
  /// pages stay warm across attempts (pure speed, never visible).
  static void load_state(Machine& machine, const MachineBaseline& base) {
    machine.hierarchy() = base.hierarchy_;
    machine.predictor() = base.predictor_;
    machine.pmu() = base.pmu_;
    Cpu& cpu = machine.cpu();
    const MachineBaseline::CpuImage& img = base.cpu_;
    std::memcpy(cpu.regs_, img.regs, sizeof(img.regs));
    std::memcpy(cpu.reg_ready_, img.reg_ready, sizeof(img.reg_ready));
    cpu.pc_ = img.pc;
    cpu.cycle_ = img.cycle;
    cpu.retired_ = img.retired;
    cpu.spec_episodes_ = img.spec_episodes;
    cpu.mstats_ = img.mstats;
    cpu.halted_ = img.halted;
    cpu.fault_ = img.fault;
  }

  static void restore(Machine& machine, MachineSnapshot& snap) {
    const MachineBaseline& base = *snap.base_;
    snap.last_restored_pages_ =
        machine.memory().restore_dirty(*base.image_, snap.versions_);
    load_state(machine, base);
    ++snap.restore_count_;
  }
};

MachineBaseline::MachineBaseline(const Machine& machine)
    : config_(machine.config()),
      image_(machine.memory().freeze()),
      hierarchy_(machine.hierarchy()),
      predictor_(machine.predictor()),
      pmu_(machine.pmu()) {
  // The copied MRU memo points into the source machine's cache storage.
  SnapshotAccess::scrub_mru(hierarchy_);
  SnapshotAccess::capture_cpu(machine.cpu(), cpu_);
}

MachineSnapshot::MachineSnapshot(std::shared_ptr<const MachineBaseline> base)
    : base_(std::move(base)), versions_(base_->image()->versions()) {}

MachineSnapshot Machine::snapshot() const { return MachineSnapshot(freeze()); }

void Machine::restore(MachineSnapshot& snap) {
  SnapshotAccess::restore(*this, snap);
}

Machine::Machine(const MachineBaseline& base)
    : config_(base.config()),
      memory_(base.image()),
      hierarchy_(config_.hierarchy),
      predictor_(config_.predictor),
      pmu_(),
      cpu_(memory_, hierarchy_, predictor_, pmu_, config_.cpu) {
  SnapshotAccess::load_state(*this, base);
}

std::shared_ptr<const MachineBaseline> Machine::freeze() const {
  return SnapshotAccess::freeze(*this);
}

std::shared_ptr<const MachineBaseline> shared_baseline(
    const MachineConfig& config) {
  return Machine(config).freeze();
}

void Kernel::reset_for_attempt(std::uint64_t seed) {
  // Pair with Machine::restore to make a reused machine+kernel behave like
  // freshly-constructed ones: the RNG restarts exactly where a new
  // Kernel(machine, {.seed = seed}) would, the mitigation counters zero,
  // and stale ward locks are forgotten (the machine restore already
  // reinstated the page permissions they recorded). Everything else that is
  // per-run — output, exit code, load tables, stack carving — is reset by
  // start().
  rng_ = Rng(seed);
  seed_drawn_ = false;
  machine_.memory().clear_watch();
  kstats_ = {};
  hstats_ = {};
  heap_bump_ = config_.heap_base;
  heap_chunks_.clear();
  ward_locks_.clear();
}

std::uint64_t hash_machine_config(const MachineConfig& config) {
  HashBuilder h;
  h.u64(config.memory_size);
  const auto cache = [&](const CacheConfig& c) {
    h.u32(c.size_bytes).u32(c.line_size).u32(c.ways).u32(c.partition_ways);
  };
  cache(config.hierarchy.l1d);
  cache(config.hierarchy.l1i);
  cache(config.hierarchy.l2);
  const HierarchyTimings& t = config.hierarchy.timings;
  h.u32(t.l1_hit).u32(t.l2_hit).u32(t.memory);
  h.u32(t.fetch_l1_hit).u32(t.fetch_l1_miss).u32(t.flush_cost);
  h.u32(config.predictor.pht_entries)
      .u32(config.predictor.btb_entries)
      .u32(config.predictor.rsb_entries);
  const CpuConfig& c = config.cpu;
  h.u32(c.max_spec_window)
      .u32(c.rob_window)
      .u32(c.mispredict_penalty)
      .u32(c.fence_cost)
      .u32(c.syscall_cost)
      .u32(c.mul_latency)
      .u32(c.div_latency)
      .b(c.decode_cache)
      .b(c.exec_engine == ExecEngine::kBlocks)
      .b(c.honor_fence_hints)
      .b(c.slh)
      .b(c.no_indirect_speculation);
  return h.digest();
}

std::uint64_t hash_program(const Program& program) {
  HashBuilder h;
  h.str(program.name).u64(program.link_base).u64(program.entry);
  h.u64(program.segments.size());
  for (const Segment& s : program.segments) {
    h.str(s.name).u64(s.addr).u32(static_cast<std::uint32_t>(s.perm));
    h.u64(s.bytes.size()).bytes(s.bytes.data(), s.bytes.size());
  }
  h.u64(program.relocations.size());
  for (const Relocation& r : program.relocations) {
    h.u64(r.segment).u64(r.offset).u32(static_cast<std::uint32_t>(r.kind));
  }
  h.u64(program.symbols.size());
  for (const auto& [name, addr] : program.symbols) {
    h.str(name).u64(addr);
  }
  return h.digest();
}

}  // namespace crs::sim
