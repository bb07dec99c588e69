#include "mitigate/config.hpp"

#include "mitigate/fence_pass.hpp"

namespace crs::mitigate {

const FlagTable<MitigationConfig>& flag_table() {
  static const FlagTable<MitigationConfig> kTable{
      "mitigation",
      {
          {"fence-bounds", &MitigationConfig::fence_bounds},
          {"slh", &MitigationConfig::slh},
          {"retpoline", &MitigationConfig::retpoline},
          {"flush-predictors", &MitigationConfig::flush_predictors},
          {"flush-l1", &MitigationConfig::flush_l1},
          {"partition", &MitigationConfig::partition_cache},
          {"ward", &MitigationConfig::ward_split},
      },
      {
          {"lfence-bounds", {.fence_bounds = true}},
          {"slh", {.slh = true}},
          {"retpoline", {.retpoline = true}},
          {"flush-on-switch", {.flush_predictors = true, .flush_l1 = true}},
          {"partition", {.partition_cache = true}},
          // Ward's design: secrets unmapped while untrusted code runs, plus
          // predictor hygiene on every kernel crossing.
          {"ward-split", {.flush_predictors = true, .ward_split = true}},
      }};
  return kTable;
}

bool MitigationConfig::any() const { return flag_table().any(*this); }

std::string MitigationConfig::serialize() const {
  return flag_table().serialize(*this);
}

MitigationConfig MitigationConfig::parse(const std::string& text) {
  return flag_table().parse(text);
}

void MitigationConfig::apply(sim::MachineConfig& machine,
                             sim::KernelConfig& kernel) const {
  if (fence_bounds) machine.cpu.honor_fence_hints = true;
  if (slh) machine.cpu.slh = true;
  if (retpoline) machine.cpu.no_indirect_speculation = true;
  if (flush_predictors) kernel.flush_predictors_on_switch = true;
  if (flush_l1) kernel.flush_l1_on_switch = true;
  if (partition_cache) {
    // Half the ways for the victim image, half for everything else.
    machine.hierarchy.l1d.partition_ways = machine.hierarchy.l1d.ways / 2;
    machine.hierarchy.l2.partition_ways = machine.hierarchy.l2.ways / 2;
  }
  if (ward_split) kernel.ward_split = true;
}

const std::vector<std::string>& preset_names() {
  return flag_table().preset_names();
}

MitigationConfig preset(const std::string& name) {
  return flag_table().preset(name);
}

Armed arm(sim::Kernel& kernel, const MitigationConfig& config) {
  Armed armed;
  if (!config.fence_bounds && !config.partition_cache) return armed;
  auto stats = armed.fence_stats;
  const bool fence = config.fence_bounds;
  const bool partition = config.partition_cache;
  kernel.set_load_hook([stats, fence, partition](sim::Machine& machine,
                                                 const sim::LoadInfo& info,
                                                 bool first_image) {
    if (fence) {
      const FencePassStats s =
          insert_bounds_fences(machine.memory(), info.lo, info.hi);
      stats->pages_scanned += s.pages_scanned;
      stats->branches_scanned += s.branches_scanned;
      stats->fences_planted += s.fences_planted;
    }
    if (partition && first_image) {
      // Victim domain = the first (host/main) image; everything mapped
      // later — the injected attack, the stacks — shares the other ways.
      machine.hierarchy().set_partition_boundary(info.hi);
    }
  });
  return armed;
}

const CounterTable<MitigationSummary>& summary_fields() {
  static const CounterTable<MitigationSummary> kFields{{
      {"fence.pages_scanned", &MitigationSummary::fence_pages_scanned},
      {"fence.planted", &MitigationSummary::fences_planted},
      {"fence.stalls", &MitigationSummary::fence_stalls},
      {"fence.squashes", &MitigationSummary::fence_squashes},
      {"slh.hardened_loads", &MitigationSummary::slh_hardened_loads},
      {"slh.masked_loads", &MitigationSummary::slh_masked_loads},
      {"retpoline.suppressions", &MitigationSummary::retpoline_suppressions},
      {"flush.predictor_flushes", &MitigationSummary::predictor_flushes},
      {"flush.predictor_entries",
       &MitigationSummary::predictor_entries_flushed},
      {"flush.l1_flushes", &MitigationSummary::l1_flushes},
      {"flush.l1_lines", &MitigationSummary::l1_lines_flushed},
      {"partition.fills", &MitigationSummary::partition_fills},
      {"partition.blocked_evictions",
       &MitigationSummary::partition_blocked_evictions},
      {"ward.lockouts", &MitigationSummary::ward_lockouts},
      {"ward.pages_locked", &MitigationSummary::ward_pages_locked},
  }};
  return kFields;
}

void accumulate(MitigationSummary& into, const MitigationSummary& from) {
  summary_fields().accumulate(into, from);
}

std::uint64_t MitigationSummary::total_events() const {
  return summary_fields().total(*this);
}

MitigationSummary summarize(const sim::Machine& machine,
                            const sim::Kernel& kernel, const Armed& armed) {
  MitigationSummary s;
  s.fence_pages_scanned = armed.fence_stats->pages_scanned;
  s.fences_planted = armed.fence_stats->fences_planted;
  const sim::CpuMitigationStats& cpu = machine.cpu().mitigation_stats();
  s.fence_stalls = cpu.fence_stalls;
  s.fence_squashes = cpu.fence_squashes;
  s.slh_hardened_loads = cpu.slh_hardened_loads;
  s.slh_masked_loads = cpu.slh_masked_loads;
  s.retpoline_suppressions = cpu.retpoline_suppressions;
  const sim::KernelMitigationStats& k = kernel.mitigation_stats();
  s.predictor_flushes = k.predictor_flushes;
  s.predictor_entries_flushed = k.predictor_entries_flushed;
  s.l1_flushes = k.l1_flushes;
  s.l1_lines_flushed = k.l1_lines_flushed;
  s.ward_lockouts = k.ward_lockouts;
  s.ward_pages_locked = k.ward_pages_locked;
  const auto add_level = [&](const sim::CacheLevelStats& stats) {
    s.partition_fills += stats.partition_fills;
    s.partition_blocked_evictions += stats.partition_blocked;
  };
  add_level(machine.hierarchy().l1d().stats());
  add_level(machine.hierarchy().l2().stats());
  return s;
}

}  // namespace crs::mitigate
