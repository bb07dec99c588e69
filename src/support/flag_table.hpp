// The flag-set algorithm both defense layers share.
//
// A defense layer — the speculation mitigations (mitigate::MitigationConfig)
// or the memory-safety hardening (harden::HardenConfig) — is a plain struct
// of bool members with named presets, plus a struct of std::uint64_t
// engagement counters. Each layer states only its data, as one static
// FlagTable (its noun, flag tokens and presets) and one static CounterTable
// (its counter names); the text form and the counter folds over that data
// are written here, once.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace crs {

/// A layer's flag set `Config` and its text form.
template <class Config>
class FlagTable {
 public:
  struct Flag {
    const char* token;
    bool Config::* member;
  };
  struct Preset {
    const char* name;
    Config config;
  };

  /// `noun` names the layer in errors ("unknown <noun> 'x'"). `presets` are
  /// the named sets in display order between the two every layer has:
  /// `none` (no flag) first and `full` (every flag) last.
  FlagTable(std::string noun, std::vector<Flag> flags,
            std::vector<Preset> presets)
      : noun_(std::move(noun)), flags_(std::move(flags)) {
    Config full;
    for (const Flag& f : flags_) full.*(f.member) = true;
    presets_.push_back({"none", Config{}});
    presets_.insert(presets_.end(), presets.begin(), presets.end());
    presets_.push_back({"full", full});
    for (const Preset& p : presets_) names_.emplace_back(p.name);
  }

  /// Preset names in display order, `none` first and `full` last.
  const std::vector<std::string>& preset_names() const { return names_; }

  /// True when at least one flag is on.
  bool any(const Config& config) const {
    for (const Flag& f : flags_) {
      if (config.*(f.member)) return true;
    }
    return false;
  }

  /// Canonical text form: the preset name when `config` matches a preset
  /// exactly (the empty set is `none`), otherwise its flag tokens
  /// comma-joined in table order ("slh,retpoline").
  std::string serialize(const Config& config) const {
    for (const Preset& p : presets_) {
      if (p.config == config) return p.name;
    }
    std::string out;
    for (const Flag& f : flags_) {
      if (!(config.*(f.member))) continue;
      if (!out.empty()) out += ',';
      out += f.token;
    }
    return out;
  }

  /// Inverse of serialize: a preset name or a comma-joined flag list, each
  /// trimmed. Throws crs::Error listing the valid presets and flags on an
  /// unknown token.
  Config parse(const std::string& text) const {
    const std::string trimmed{trim(text)};
    for (const Preset& p : presets_) {
      if (trimmed == p.name) return p.config;
    }
    Config config;
    for (const std::string& raw : split(trimmed, ',')) {
      const std::string token{trim(raw)};
      bool known = false;
      for (const Flag& f : flags_) {
        if (token == f.token) {
          config.*(f.member) = true;
          known = true;
          break;
        }
      }
      if (!known) {
        throw Error("unknown " + noun_ + " '" + token + "' (" + listing() +
                    ")");
      }
    }
    return config;
  }

  /// Flag set of preset `name`; throws crs::Error with the listing for an
  /// unknown one.
  Config preset(const std::string& name) const {
    for (const Preset& p : presets_) {
      if (name == p.name) return p.config;
    }
    throw Error("unknown " + noun_ + " preset '" + name + "' (" + listing() +
                ")");
  }

 private:
  std::string listing() const {
    std::string msg = "valid presets: ";
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (i != 0) msg += ", ";
      msg += names_[i];
    }
    msg += "; valid flags: ";
    for (std::size_t i = 0; i < flags_.size(); ++i) {
      if (i != 0) msg += ", ";
      msg += flags_[i].token;
    }
    return msg;
  }

  std::string noun_;
  std::vector<Flag> flags_;
  std::vector<Preset> presets_;
  std::vector<std::string> names_;
};

/// A layer's engagement counters `Summary`, each named for the metrics
/// registry and the `--metrics` CSVs; iterates its fields in publish order.
template <class Summary>
class CounterTable {
 public:
  struct Field {
    const char* name;
    std::uint64_t Summary::* member;
  };

  explicit CounterTable(std::vector<Field> fields)
      : fields_(std::move(fields)) {}

  auto begin() const { return fields_.begin(); }
  auto end() const { return fields_.end(); }

  /// Adds every counter of `from` into `into` (cell aggregation).
  void accumulate(Summary& into, const Summary& from) const {
    for (const Field& f : fields_) into.*(f.member) += from.*(f.member);
  }

  /// Sum of every counter: the "did the defense engage" total.
  std::uint64_t total(const Summary& summary) const {
    std::uint64_t sum = 0;
    for (const Field& f : fields_) sum += summary.*(f.member);
    return sum;
  }

  /// Adds every counter into the MetricsRegistry under `<prefix>.<name>`.
  void publish(const Summary& summary, const std::string& prefix) const {
    auto& reg = obs::MetricsRegistry::instance();
    for (const Field& f : fields_) {
      reg.counter(prefix + "." + f.name).add(summary.*(f.member));
    }
  }

 private:
  std::vector<Field> fields_;
};

}  // namespace crs
