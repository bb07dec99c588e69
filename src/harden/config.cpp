#include "harden/config.hpp"

namespace crs::harden {

const FlagTable<HardenConfig>& flag_table() {
  static const FlagTable<HardenConfig> kTable{
      "hardening",
      {
          {"aslr", &HardenConfig::aslr},
          {"canary", &HardenConfig::canary},
          {"heap-guard", &HardenConfig::heap_guard},
      },
      {
          {"aslr", {.aslr = true}},
          {"canary", {.canary = true}},
          {"heap-guard", {.heap_guard = true}},
      }};
  return kTable;
}

bool HardenConfig::any() const { return flag_table().any(*this); }

std::string HardenConfig::serialize() const {
  return flag_table().serialize(*this);
}

HardenConfig HardenConfig::parse(const std::string& text) {
  return flag_table().parse(text);
}

void HardenConfig::apply(sim::KernelConfig& kernel) const {
  if (aslr) {
    kernel.aslr = true;
    kernel.aslr_stack = true;
  }
  if (heap_guard) kernel.heap_guard = true;
}

const std::vector<std::string>& preset_names() {
  return flag_table().preset_names();
}

HardenConfig preset(const std::string& name) {
  return flag_table().preset(name);
}

const CounterTable<HardenSummary>& summary_fields() {
  static const CounterTable<HardenSummary> kFields{{
      {"aslr.images_randomized", &HardenSummary::images_randomized},
      {"aslr.stacks_randomized", &HardenSummary::stacks_randomized},
      {"canary.planted", &HardenSummary::canaries_planted},
      {"canary.aborts", &HardenSummary::canary_aborts},
      {"heap.allocs", &HardenSummary::heap_allocs},
      {"heap.frees", &HardenSummary::heap_frees},
      {"heap.redzone_bytes_checked", &HardenSummary::redzone_bytes_checked},
      {"heap.redzone_violations", &HardenSummary::redzone_violations},
  }};
  return kFields;
}

void accumulate(HardenSummary& into, const HardenSummary& from) {
  summary_fields().accumulate(into, from);
}

std::uint64_t HardenSummary::total_events() const {
  return summary_fields().total(*this);
}

HardenSummary summarize(const sim::Kernel& kernel,
                        const HardenConfig& config) {
  const sim::KernelHardenStats& k = kernel.harden_stats();
  HardenSummary s;
  if (config.aslr) {
    s.images_randomized = k.images_randomized;
    s.stacks_randomized = k.stacks_randomized;
  }
  if (config.canary) {
    s.canaries_planted = k.canaries_planted;
    s.canary_aborts = k.canary_aborts;
  }
  if (config.heap_guard) {
    s.heap_allocs = k.heap_allocs;
    s.heap_frees = k.heap_frees;
    s.redzone_bytes_checked = k.redzone_bytes_checked;
    s.redzone_violations = k.redzone_violations;
  }
  return s;
}

}  // namespace crs::harden
