#include "core/job.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>

#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "core/corpus.hpp"
#include "core/report.hpp"
#include "isa/isa.hpp"
#include "sim/kernel.hpp"
#include "sim/pmu.hpp"
#include "sim/snapshot.hpp"
#include "support/error.hpp"
#include "support/memo.hpp"
#include "support/strings.hpp"

namespace crs::core {

namespace {

// ---------------------------------------------------------------------------
// Serialization primitives. Text lines `key=value`; doubles via %.17g so a
// round trip reproduces the exact bits; raw program source length-prefixed
// so arbitrary bytes survive.

std::string fmt_f64(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double parse_f64(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  // strtod also takes nan/inf spellings and overflows to inf. No field wants
  // them, and a NaN in a session's config would compare equivalent to other
  // configs in the session cache.
  if (end == v.c_str() || *end != '\0' || !std::isfinite(out)) {
    throw Error("job spec: " + key + " wants a finite number, got '" + v +
                "'");
  }
  return out;
}

std::uint64_t parse_u64(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const std::uint64_t out = std::strtoull(v.c_str(), &end, 0);
  if (end == v.c_str() || *end != '\0') {
    throw Error("job spec: " + key + " wants an unsigned integer, got '" + v +
                "'");
  }
  return out;
}

std::size_t parse_corpus_windows(const std::string& key,
                                 const std::string& v) {
  const std::uint64_t out = parse_u64(key, v);
  if (out == 0 || out > kMaxJobCorpusWindows) {
    throw Error("job spec: " + key + " wants 1.." +
                std::to_string(kMaxJobCorpusWindows) + " windows, got '" + v +
                "'");
  }
  return out;
}

int parse_int_field(const std::string& key, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const long out = std::strtol(v.c_str(), &end, 0);
  if (end == v.c_str() || *end != '\0') {
    throw Error("job spec: " + key + " wants an integer, got '" + v + "'");
  }
  // A silent narrowing would run a different job from the one sent.
  if (errno == ERANGE || out < INT_MIN || out > INT_MAX) {
    throw Error("job spec: " + key + " is outside the int range, got '" + v +
                "'");
  }
  return static_cast<int>(out);
}

/// parse_int_field restricted to 1..`max`.
int parse_count_field(const std::string& key, const std::string& v, int max) {
  const int out = parse_int_field(key, v);
  if (out < 1 || out > max) {
    throw Error("job spec: " + key + " wants 1.." + std::to_string(max) +
                ", got '" + v + "'");
  }
  return out;
}

/// parse_int_field capped at kMaxJobAttempts. Counts below 1 keep their
/// meaning: a scenario job runs one attempt, a campaign refuses to run.
int parse_attempts_field(const std::string& key, const std::string& v) {
  const int out = parse_int_field(key, v);
  if (out > kMaxJobAttempts) {
    throw Error("job spec: " + key + " wants at most " +
                std::to_string(kMaxJobAttempts) + " attempts, got '" + v +
                "'");
  }
  return out;
}

bool parse_bool_field(const std::string& key, const std::string& v) {
  if (v == "1") return true;
  if (v == "0") return false;
  throw Error("job spec: " + key + " wants 0 or 1, got '" + v + "'");
}

attack::SpectreVariant parse_variant(const std::string& v) {
  for (const auto variant : attack::all_variants()) {
    if (attack::variant_name(variant) == v) return variant;
  }
  throw Error("job spec: unknown variant '" + v + "'");
}

perturb::MimicStyle parse_style(const std::string& v) {
  for (const auto style :
       {perturb::MimicStyle::kHotAlu, perturb::MimicStyle::kStrided,
        perturb::MimicStyle::kBranchy, perturb::MimicStyle::kStores}) {
    if (perturb::mimic_style_name(style) == v) return style;
  }
  throw Error("job spec: unknown mimic style '" + v + "'");
}

void emit_scenario(std::string& out, const ScenarioConfig& c) {
  out += "host=" + c.host + "\n";
  out += "host_scale=" + std::to_string(c.host_scale) + "\n";
  out += "secret=" + c.secret + "\n";
  out += "variant=" + attack::variant_name(c.variant) + "\n";
  out += std::string("rop_injected=") + (c.rop_injected ? "1" : "0") + "\n";
  out += std::string("perturb=") + (c.perturb ? "1" : "0") + "\n";
  const perturb::PerturbParams& p = c.perturb_params;
  out += "p.a=" + std::to_string(p.a) + "\n";
  out += "p.b=" + std::to_string(p.b) + "\n";
  out += "p.loop_count=" + std::to_string(p.loop_count) + "\n";
  out += "p.a_step=" + std::to_string(p.a_step) + "\n";
  out += "p.b_step=" + std::to_string(p.b_step) + "\n";
  out += "p.extra_ladders=" + std::to_string(p.extra_ladders) + "\n";
  out += "p.delay=" + std::to_string(p.delay) + "\n";
  out += "p.style=" + perturb::mimic_style_name(p.style) + "\n";
  out += std::string("p.flushless=") + (p.flushless ? "1" : "0") + "\n";
  out += std::string("canary=") + (c.canary ? "1" : "0") + "\n";
  out += std::string("aslr=") + (c.aslr ? "1" : "0") + "\n";
  out += "harden=" + c.harden.serialize() + "\n";
  out += std::string("leak_stage=") + (c.leak_stage ? "1" : "0") + "\n";
  out += std::string("spectre11=") + (c.spectre11 ? "1" : "0") + "\n";
  out += "mitigations=" + c.mitigations.serialize() + "\n";
  out += "seed=" + std::to_string(c.seed) + "\n";
  const hid::ProfilerConfig& pr = c.profiler;
  out += "prof.window_cycles=" + std::to_string(pr.window_cycles) + "\n";
  out += "prof.max_windows=" + std::to_string(pr.max_windows) + "\n";
  out += "prof.max_instructions=" + std::to_string(pr.max_instructions) + "\n";
  out += "prof.noise_sigma=" + fmt_f64(pr.noise_sigma) + "\n";
  out += "prof.background_intensity=" + fmt_f64(pr.background_intensity) +
         "\n";
  out += "prof.noise_seed=" + std::to_string(pr.noise_seed) + "\n";
  if (!c.mined_attack_source.empty()) {
    // Length-prefixed (like prog.source): the mined replay program is a
    // multi-line casm listing and cannot ride in a key=value line.
    out += "mined.source=" + std::to_string(c.mined_attack_source.size()) +
           "\n";
    out += c.mined_attack_source;
    out += "\n";
  }
}

/// Applies one scenario-section key; true when the key belonged here.
bool apply_scenario_key(ScenarioConfig& c, const std::string& key,
                        const std::string& value) {
  if (key == "host") {
    c.host = value;
  } else if (key == "host_scale") {
    c.host_scale = parse_u64(key, value);
  } else if (key == "secret") {
    c.secret = value;
  } else if (key == "variant") {
    c.variant = parse_variant(value);
  } else if (key == "rop_injected") {
    c.rop_injected = parse_bool_field(key, value);
  } else if (key == "perturb") {
    c.perturb = parse_bool_field(key, value);
  } else if (key == "p.a") {
    c.perturb_params.a = parse_int_field(key, value);
  } else if (key == "p.b") {
    c.perturb_params.b = parse_int_field(key, value);
  } else if (key == "p.loop_count") {
    c.perturb_params.loop_count = parse_int_field(key, value);
  } else if (key == "p.a_step") {
    c.perturb_params.a_step = parse_int_field(key, value);
  } else if (key == "p.b_step") {
    c.perturb_params.b_step = parse_int_field(key, value);
  } else if (key == "p.extra_ladders") {
    c.perturb_params.extra_ladders = parse_int_field(key, value);
  } else if (key == "p.delay") {
    c.perturb_params.delay = parse_int_field(key, value);
  } else if (key == "p.style") {
    c.perturb_params.style = parse_style(value);
  } else if (key == "p.flushless") {
    c.perturb_params.flushless = parse_bool_field(key, value);
  } else if (key == "canary") {
    c.canary = parse_bool_field(key, value);
  } else if (key == "aslr") {
    c.aslr = parse_bool_field(key, value);
  } else if (key == "harden") {
    c.harden = harden::HardenConfig::parse(value);
  } else if (key == "leak_stage") {
    c.leak_stage = parse_bool_field(key, value);
  } else if (key == "spectre11") {
    c.spectre11 = parse_bool_field(key, value);
  } else if (key == "mitigations") {
    c.mitigations = mitigate::MitigationConfig::parse(value);
  } else if (key == "seed") {
    c.seed = parse_u64(key, value);
  } else if (key == "prof.window_cycles") {
    c.profiler.window_cycles = parse_u64(key, value);
  } else if (key == "prof.max_windows") {
    c.profiler.max_windows = parse_u64(key, value);
  } else if (key == "prof.max_instructions") {
    c.profiler.max_instructions = parse_u64(key, value);
  } else if (key == "prof.noise_sigma") {
    c.profiler.noise_sigma = parse_f64(key, value);
  } else if (key == "prof.background_intensity") {
    c.profiler.background_intensity = parse_f64(key, value);
  } else if (key == "prof.noise_seed") {
    c.profiler.noise_seed = parse_u64(key, value);
  } else {
    return false;
  }
  return true;
}

std::string hex_encode(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const unsigned char b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

}  // namespace

std::string job_kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::kScenario:
      return "scenario";
    case JobKind::kCampaign:
      return "campaign";
    case JobKind::kMatrix:
      return "matrix";
    case JobKind::kProgram:
      return "program";
  }
  return "unknown";
}

std::string serialize_job(const JobSpec& spec) {
  std::string out = "crs-job v1\n";
  out += "kind=" + job_kind_name(spec.kind) + "\n";
  out += "id=" + std::to_string(spec.id) + "\n";
  switch (spec.kind) {
    case JobKind::kScenario:
      emit_scenario(out, spec.scenario.config);
      out += "attempts=" + std::to_string(spec.scenario.attempts) + "\n";
      break;
    case JobKind::kCampaign: {
      const CampaignConfig& c = spec.campaign.config;
      emit_scenario(out, c.scenario);
      out += "camp.attempts=" + std::to_string(c.attempts) + "\n";
      out += std::string("camp.online=") + (c.online_hid ? "1" : "0") + "\n";
      out += std::string("camp.dynamic=") +
             (c.dynamic_perturbation ? "1" : "0") + "\n";
      out += "camp.detect_threshold=" + fmt_f64(c.detect_threshold) + "\n";
      out += "camp.evade_threshold=" + fmt_f64(c.evade_threshold) + "\n";
      out += "camp.seed=" + std::to_string(c.seed) + "\n";
      out += "det.classifier=" + c.detector.classifier + "\n";
      out += "det.feature_count=" + std::to_string(c.detector.feature_count) +
             "\n";
      out += "det.seed=" + std::to_string(c.detector.seed) + "\n";
      out += "camp.corpus_windows=" +
             std::to_string(spec.campaign.corpus_windows) + "\n";
      out += "camp.corpus_seed=" + std::to_string(spec.campaign.corpus_seed) +
             "\n";
      break;
    }
    case JobKind::kMatrix: {
      const DefenseMatrixConfig& m = spec.matrix.config;
      out += "mx.attempts=" + std::to_string(m.attempts) + "\n";
      out += "mx.seed=" + std::to_string(m.seed) + "\n";
      out += "mx.host_scale=" + std::to_string(m.host_scale) + "\n";
      out += "mx.secret=" + m.secret + "\n";
      std::string presets;
      for (const auto& p : m.presets) {
        if (!presets.empty()) presets += ',';
        presets += p;
      }
      out += "mx.presets=" + presets + "\n";
      out += "mx.corpus_windows=" + std::to_string(m.corpus_windows) + "\n";
      out += "mx.overhead_repeats=" + std::to_string(m.overhead_repeats) +
             "\n";
      out += std::string("mx.quick=") + (m.quick ? "1" : "0") + "\n";
      break;
    }
    case JobKind::kProgram:
      out += "prog.max_instructions=" +
             std::to_string(spec.program.max_instructions) + "\n";
      out += std::string("prog.smc=") +
             (spec.program.writable_text ? "1" : "0") + "\n";
      out += "prog.source=" + std::to_string(spec.program.source.size()) +
             "\n";
      out += spec.program.source;
      out += "\n";
      break;
  }
  return out;
}

JobSpec parse_job(const std::string& text) {
  JobSpec spec;
  std::size_t pos = 0;
  bool have_kind = false;
  bool have_source = false;

  const auto next_line = [&]() -> std::optional<std::string> {
    if (pos >= text.size()) return std::nullopt;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      throw Error("job spec: unterminated line at offset " +
                  std::to_string(pos));
    }
    std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };

  const auto header = next_line();
  if (!header || *header != "crs-job v1") {
    throw Error("job spec: missing 'crs-job v1' header");
  }

  while (const auto line_opt = next_line()) {
    const std::string& line = *line_opt;
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      throw Error("job spec: malformed line '" + line + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);

    if (key == "kind") {
      have_kind = true;
      if (value == "scenario") {
        spec.kind = JobKind::kScenario;
      } else if (value == "campaign") {
        spec.kind = JobKind::kCampaign;
      } else if (value == "matrix") {
        spec.kind = JobKind::kMatrix;
      } else if (value == "program") {
        spec.kind = JobKind::kProgram;
      } else {
        throw Error("job spec: unknown kind '" + value + "'");
      }
      continue;
    }
    if (!have_kind) throw Error("job spec: '" + key + "' before kind");
    if (key == "id") {
      spec.id = parse_u64(key, value);
      continue;
    }

    ScenarioConfig* sc = nullptr;
    if (spec.kind == JobKind::kScenario) sc = &spec.scenario.config;
    if (spec.kind == JobKind::kCampaign) sc = &spec.campaign.config.scenario;
    if (sc != nullptr && key == "mined.source") {
      const std::uint64_t len = parse_u64(key, value);
      if (len > text.size() || pos + len + 1 > text.size()) {
        throw Error("job spec: truncated mined source (wants " +
                    std::to_string(len) + " bytes)");
      }
      sc->mined_attack_source = text.substr(pos, len);
      if (text[pos + len] != '\n') {
        throw Error("job spec: mined source not newline-terminated");
      }
      pos += len + 1;
      continue;
    }
    if (sc != nullptr && apply_scenario_key(*sc, key, value)) continue;

    if (spec.kind == JobKind::kScenario && key == "attempts") {
      spec.scenario.attempts = parse_attempts_field(key, value);
      continue;
    }
    if (spec.kind == JobKind::kCampaign) {
      CampaignConfig& c = spec.campaign.config;
      if (key == "camp.attempts") {
        c.attempts = parse_attempts_field(key, value);
      } else if (key == "camp.online") {
        c.online_hid = parse_bool_field(key, value);
      } else if (key == "camp.dynamic") {
        c.dynamic_perturbation = parse_bool_field(key, value);
      } else if (key == "camp.detect_threshold") {
        c.detect_threshold = parse_f64(key, value);
      } else if (key == "camp.evade_threshold") {
        c.evade_threshold = parse_f64(key, value);
      } else if (key == "camp.seed") {
        c.seed = parse_u64(key, value);
      } else if (key == "det.classifier") {
        c.detector.classifier = value;
      } else if (key == "det.feature_count") {
        c.detector.feature_count = parse_u64(key, value);
      } else if (key == "det.seed") {
        c.detector.seed = parse_u64(key, value);
      } else if (key == "camp.corpus_windows") {
        spec.campaign.corpus_windows = parse_corpus_windows(key, value);
      } else if (key == "camp.corpus_seed") {
        spec.campaign.corpus_seed = parse_u64(key, value);
      } else {
        throw Error("job spec: unknown campaign key '" + key + "'");
      }
      continue;
    }
    if (spec.kind == JobKind::kMatrix) {
      DefenseMatrixConfig& m = spec.matrix.config;
      if (key == "mx.attempts") {
        m.attempts = parse_count_field(key, value, kMaxJobMatrixAttempts);
      } else if (key == "mx.seed") {
        m.seed = parse_u64(key, value);
      } else if (key == "mx.host_scale") {
        m.host_scale = parse_u64(key, value);
      } else if (key == "mx.secret") {
        m.secret = value;
      } else if (key == "mx.presets") {
        m.presets = value.empty() ? std::vector<std::string>{}
                                  : split(value, ',');
      } else if (key == "mx.corpus_windows") {
        m.corpus_windows = parse_corpus_windows(key, value);
      } else if (key == "mx.overhead_repeats") {
        m.overhead_repeats =
            parse_count_field(key, value, kMaxJobOverheadRepeats);
      } else if (key == "mx.quick") {
        m.quick = parse_bool_field(key, value);
      } else {
        throw Error("job spec: unknown matrix key '" + key + "'");
      }
      continue;
    }
    if (spec.kind == JobKind::kProgram) {
      if (key == "prog.max_instructions") {
        spec.program.max_instructions = parse_u64(key, value);
        continue;
      }
      if (key == "prog.smc") {
        spec.program.writable_text = parse_bool_field(key, value);
        continue;
      }
      if (key == "prog.source") {
        const std::uint64_t len = parse_u64(key, value);
        if (len > text.size() || pos + len + 1 > text.size()) {
          throw Error("job spec: truncated program source (wants " +
                      std::to_string(len) + " bytes)");
        }
        spec.program.source = text.substr(pos, len);
        if (text[pos + len] != '\n') {
          throw Error("job spec: program source not newline-terminated");
        }
        pos += len + 1;
        have_source = true;
        continue;
      }
      throw Error("job spec: unknown program key '" + key + "'");
    }
    throw Error("job spec: unknown key '" + key + "'");
  }

  if (!have_kind) throw Error("job spec: missing kind");
  if (spec.kind == JobKind::kProgram && !have_source) {
    throw Error("job spec: program job without prog.source");
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Execution.

namespace {

constexpr const char* kScenarioHeader =
    "attempt,launched,secret_recovered,recovered_hex,host_ipc,"
    "attack_windows,host_windows,sim_cycles,mitigation_events\n";

JobOutcome run_scenario_job(const ScenarioJob& job,
                            const JobProgressFn& on_progress) {
  JobOutcome out;
  const int attempts = std::max(1, job.attempts);
  out.progress.total = static_cast<std::uint64_t>(attempts);

  // Like run_campaign: a warm per-thread session, so attempt i is a
  // rollback plus a run — bit-identical to run_scenario with seed+i. Each
  // shared execution serves a prefix of the next seeds (at most one call's
  // worth are listed at a time), and progress is reported after each one.
  ScenarioSession& session = thread_session(job.config);
  std::vector<std::uint64_t> seeds;

  std::string payload = kScenarioHeader;
  for (int next = 0; next < attempts;) {
    seeds.clear();
    for (int i = next; i < attempts &&
                       seeds.size() < ScenarioSession::kMaxSharedAttempts;
         ++i) {
      seeds.push_back(job.config.seed + static_cast<std::uint64_t>(i));
    }
    const std::vector<ScenarioRun> runs =
        session.run_attempts(seeds, job.config.perturb_params);
    for (const ScenarioRun& run : runs) {
      hid::record_run_metrics(run.profile);
      payload += std::to_string(++next) + ',';
      payload += std::to_string(run.attack_launched ? 1 : 0) + ',';
      payload += std::to_string(run.secret_recovered ? 1 : 0) + ',';
      payload += hex_encode(run.recovered) + ',';
      payload += fixed(run.host_ipc, 4) + ',';
      payload += std::to_string(run.attack_windows.size()) + ',';
      payload += std::to_string(run.host_windows.size()) + ',';
      payload += std::to_string(run.profile.cycles) + ',';
      payload += std::to_string(run.mitigation.total_events()) + '\n';
      out.progress.leaks += run.secret_recovered ? 1 : 0;
      out.progress.sim_cycles += run.profile.cycles;
    }
    out.progress.done = static_cast<std::uint64_t>(next);
    if (on_progress && !on_progress(out.progress)) {
      out.cancelled = true;
      return out;
    }
  }
  out.payload = std::move(payload);
  return out;
}

JobOutcome run_campaign_job(const CampaignJob& job,
                            const JobProgressFn& on_progress) {
  JobOutcome out;
  out.progress.total = static_cast<std::uint64_t>(
      std::max(0, job.config.attempts));

  // Deterministic corpus construction from the spec — exactly what the
  // batch figure benches do before calling run_campaign.
  CorpusConfig ccfg;
  ccfg.windows_per_class = job.corpus_windows;
  ccfg.secret = job.config.scenario.secret;
  ccfg.seed = job.corpus_seed;
  const ml::Dataset benign = build_benign_corpus(ccfg);
  const ml::Dataset attack_set = build_attack_corpus(ccfg);

  CampaignConfig cfg = job.config;
  bool cancelled = false;
  cfg.on_attempt = [&](const AttemptRecord& record) {
    out.progress.done = static_cast<std::uint64_t>(record.attempt);
    out.progress.leaks += record.secret_recovered ? 1 : 0;
    out.progress.sim_cycles += record.sim_cycles;
    if (on_progress && !on_progress(out.progress)) {
      cancelled = true;
      return false;
    }
    return true;
  };

  const CampaignResult result = run_campaign(cfg, benign, attack_set);
  if (cancelled) {
    out.cancelled = true;
    return out;
  }
  out.payload = campaign_to_csv(result);
  return out;
}

JobOutcome run_matrix_job(const MatrixJob& job,
                          const JobProgressFn& on_progress) {
  JobOutcome out;
  // The matrix fans its cells out on the worker pool internally; progress
  // is reported at the sweep boundary only, and cancellation is honoured
  // before the sweep starts.
  if (on_progress && !on_progress(out.progress)) {
    out.cancelled = true;
    return out;
  }
  const DefenseMatrixResult result = run_defense_matrix(job.config);
  out.progress.total = static_cast<std::uint64_t>(result.cells.size());
  out.progress.done = out.progress.total;
  for (const auto& cell : result.cells) {
    out.progress.leaks += static_cast<std::uint64_t>(cell.leaks);
  }
  if (on_progress && !on_progress(out.progress)) {
    out.cancelled = true;
    return out;
  }
  out.payload = matrix_csv(result);
  return out;
}

JobOutcome run_program_job(const ProgramJob& job,
                           const JobProgressFn& on_progress) {
  constexpr const char* kPath = "/bin/served";
  constexpr std::uint64_t kChunk = 262'144;  // progress/cancel granularity

  const sim::Program program =
      casm::assemble(job.source + casm::runtime_library(),
                     {.name = kPath, .link_base = 0x10000});

  // Same discipline as the fuzz differ: a per-thread machine pool hands
  // back a pristine fork instead of constructing 16 MB of zeroed memory per
  // program.
  thread_local sim::MachinePool pool;
  sim::Machine& machine = pool.acquire(sim::MachineConfig{});
  sim::Kernel kernel(machine, {});
  kernel.register_binary(kPath, program);
  kernel.start_with_strings(kPath, {kPath});

  if (job.writable_text) {
    const auto& img = kernel.main_image();
    const auto page = sim::Memory::kPageSize;
    const auto lo = img.lo / page * page;
    const auto hi = (img.hi + page - 1) / page * page;
    machine.memory().set_permissions(
        lo, hi - lo,
        static_cast<sim::Perm>(sim::kPermRead | sim::kPermWrite |
                               sim::kPermExec));
  }

  JobOutcome out;
  auto& cpu = machine.cpu();
  auto stop = sim::StopReason::kInstructionLimit;
  while (true) {
    const std::uint64_t done = cpu.retired();
    if (done >= job.max_instructions) break;
    stop = kernel.run(std::min(kChunk, job.max_instructions - done));
    out.progress.done = cpu.retired();
    out.progress.sim_cycles = cpu.cycle();
    if (on_progress && !on_progress(out.progress)) {
      out.cancelled = true;
      return out;
    }
    if (stop != sim::StopReason::kInstructionLimit) break;
  }

  std::string payload;
  switch (stop) {
    case sim::StopReason::kHalted:
      payload += "stop=halted\n";
      break;
    case sim::StopReason::kFault:
      payload += "stop=fault\n";
      break;
    default:
      payload += "stop=limit\n";
      break;
  }
  payload += "exit=" + std::to_string(kernel.exit_code()) + "\n";
  payload += "retired=" + std::to_string(cpu.retired()) + "\n";
  payload += "cycle=" + std::to_string(cpu.cycle()) + "\n";
  payload += "pc=" + hex(cpu.pc()) + "\n";
  if (stop == sim::StopReason::kFault) {
    payload +=
        "fault_kind=" + std::to_string(static_cast<int>(cpu.fault().kind)) +
        "\n";
    payload += "fault_pc=" + hex(cpu.fault().pc) + "\n";
    payload += "fault_addr=" + hex(cpu.fault().addr) + "\n";
  }
  HashBuilder regs;
  for (int r = 0; r < isa::kNumRegisters; ++r) {
    regs.u64(cpu.reg(r));
  }
  payload += "regs_fnv=" + hex(regs.digest()) + "\n";
  for (std::size_t i = 0; i < sim::kEventCount; ++i) {
    const auto e = static_cast<sim::Event>(i);
    payload += "pmu." + std::string(sim::event_name(e)) + "=" +
               std::to_string(machine.pmu().count(e)) + "\n";
  }
  payload += "output_hex=" + hex_encode(kernel.output_string()) + "\n";
  out.payload = std::move(payload);
  return out;
}

}  // namespace

JobOutcome run_job(const JobSpec& spec, const JobProgressFn& on_progress) {
  switch (spec.kind) {
    case JobKind::kScenario:
      return run_scenario_job(spec.scenario, on_progress);
    case JobKind::kCampaign:
      return run_campaign_job(spec.campaign, on_progress);
    case JobKind::kMatrix:
      return run_matrix_job(spec.matrix, on_progress);
    case JobKind::kProgram:
      return run_program_job(spec.program, on_progress);
  }
  throw Error("run_job: unknown job kind");
}

std::uint64_t job_affinity_key(const JobSpec& spec) {
  HashBuilder h;
  switch (spec.kind) {
    case JobKind::kScenario:
    case JobKind::kCampaign: {
      const ScenarioConfig& sc = spec.kind == JobKind::kScenario
                                     ? spec.scenario.config
                                     : spec.campaign.config.scenario;
      // The machine configuration the session will simulate (mitigations
      // lower onto it) — jobs sharing it can reuse a shard's warm machines —
      // plus the full session identity, so identical jobs always collide.
      sim::MachineConfig mcfg;
      sim::KernelConfig kcfg;
      sc.mitigations.apply(mcfg, kcfg);
      h.u64(sim::hash_machine_config(mcfg));
      h.u64(hash_scenario_config(sc));
      break;
    }
    case JobKind::kMatrix: {
      const DefenseMatrixConfig& m = spec.matrix.config;
      h.str("matrix").u64(m.seed).u64(m.host_scale).str(m.secret);
      h.i64(m.attempts).b(m.quick);
      for (const auto& p : m.presets) h.str(p);
      break;
    }
    case JobKind::kProgram:
      h.str("program").str(spec.program.source).b(spec.program.writable_text);
      break;
  }
  return h.digest();
}

}  // namespace crs::core
