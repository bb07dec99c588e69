#include "harden/config.hpp"

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace crs::harden {

namespace {

struct FlagSpec {
  const char* token;
  bool HardenConfig::* member;
};

constexpr FlagSpec kFlags[] = {
    {"aslr", &HardenConfig::aslr},
    {"canary", &HardenConfig::canary},
    {"heap-guard", &HardenConfig::heap_guard},
};

struct PresetSpec {
  const char* name;
  HardenConfig config;
};

const std::vector<PresetSpec>& presets() {
  static const std::vector<PresetSpec> kPresets = [] {
    std::vector<PresetSpec> p;
    p.push_back({"none", {}});
    {
      HardenConfig c;
      c.aslr = true;
      p.push_back({"aslr", c});
    }
    {
      HardenConfig c;
      c.canary = true;
      p.push_back({"canary", c});
    }
    {
      HardenConfig c;
      c.heap_guard = true;
      p.push_back({"heap-guard", c});
    }
    {
      HardenConfig c;
      for (const auto& f : kFlags) c.*(f.member) = true;
      p.push_back({"full", c});
    }
    return p;
  }();
  return kPresets;
}

std::string valid_tokens_message() {
  std::string msg = "valid presets: ";
  for (std::size_t i = 0; i < presets().size(); ++i) {
    if (i != 0) msg += ", ";
    msg += presets()[i].name;
  }
  msg += "; valid flags: ";
  for (std::size_t i = 0; i < std::size(kFlags); ++i) {
    if (i != 0) msg += ", ";
    msg += kFlags[i].token;
  }
  return msg;
}

}  // namespace

bool HardenConfig::any() const {
  for (const auto& f : kFlags) {
    if (this->*(f.member)) return true;
  }
  return false;
}

std::string HardenConfig::serialize() const {
  for (const auto& p : presets()) {
    if (p.config == *this) return p.name;
  }
  std::string out;
  for (const auto& f : kFlags) {
    if (!(this->*(f.member))) continue;
    if (!out.empty()) out += ',';
    out += f.token;
  }
  return out.empty() ? "none" : out;
}

HardenConfig HardenConfig::parse(const std::string& text) {
  const std::string trimmed{trim(text)};
  for (const auto& p : presets()) {
    if (trimmed == p.name) return p.config;
  }
  HardenConfig config;
  for (const std::string& raw : split(trimmed, ',')) {
    const std::string token{trim(raw)};
    bool known = false;
    for (const auto& f : kFlags) {
      if (token == f.token) {
        config.*(f.member) = true;
        known = true;
        break;
      }
    }
    if (!known) {
      throw Error("unknown hardening '" + token + "' (" +
                  valid_tokens_message() + ")");
    }
  }
  return config;
}

void HardenConfig::apply(sim::KernelConfig& kernel) const {
  if (aslr) {
    kernel.aslr = true;
    kernel.aslr_stack = true;
  }
  if (heap_guard) kernel.heap_guard = true;
}

const std::vector<std::string>& preset_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const auto& p : presets()) names.emplace_back(p.name);
    return names;
  }();
  return kNames;
}

HardenConfig preset(const std::string& name) {
  for (const auto& p : presets()) {
    if (name == p.name) return p.config;
  }
  throw Error("unknown hardening preset '" + name + "' (" +
              valid_tokens_message() + ")");
}

const std::vector<HardenSummaryField>& summary_fields() {
  static const std::vector<HardenSummaryField> kFields = {
      {"aslr.images_randomized", &HardenSummary::images_randomized},
      {"aslr.stacks_randomized", &HardenSummary::stacks_randomized},
      {"canary.planted", &HardenSummary::canaries_planted},
      {"canary.aborts", &HardenSummary::canary_aborts},
      {"heap.allocs", &HardenSummary::heap_allocs},
      {"heap.frees", &HardenSummary::heap_frees},
      {"heap.redzone_bytes_checked", &HardenSummary::redzone_bytes_checked},
      {"heap.redzone_violations", &HardenSummary::redzone_violations},
  };
  return kFields;
}

void accumulate(HardenSummary& into, const HardenSummary& from) {
  for (const HardenSummaryField& f : summary_fields()) {
    into.*(f.member) += from.*(f.member);
  }
}

std::uint64_t HardenSummary::total_events() const {
  std::uint64_t total = 0;
  for (const HardenSummaryField& f : summary_fields()) {
    total += this->*(f.member);
  }
  return total;
}

void HardenSummary::publish(const std::string& prefix) const {
  auto& reg = obs::MetricsRegistry::instance();
  for (const HardenSummaryField& f : summary_fields()) {
    reg.counter(prefix + "." + f.name).add(this->*(f.member));
  }
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
