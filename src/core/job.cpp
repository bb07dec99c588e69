#include "core/job.hpp"

#include <algorithm>
#include <climits>
#include <cstdio>
#include <iterator>
#include <optional>
#include <string_view>
#include <type_traits>

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
// The crs-job v1 field table. Text lines `key=value`, one row per key, in
// emit order: serialize_job writes the rows of the spec's kind in table
// order, parse_job finds each line's row by key, and the row's field type
// and range are the only rules its value is read by. Doubles print with
// %.17g so a round trip reproduces the exact bits; blob rows carry raw casm
// source length-prefixed, so arbitrary bytes survive.

/// A row's section: the job kinds it belongs to, and the object its
/// accessor reads.
enum class Section {
  kHeader,
  kScenario,
  kAttempts,
  kCampaign,
  kMatrix,
  kProgram
};
using enum Section;

bool in_section(Section section, JobKind kind) {
  switch (section) {
    case kHeader:
      return true;
    case kScenario:
      return kind == JobKind::kScenario || kind == JobKind::kCampaign;
    case kAttempts:
      return kind == JobKind::kScenario;
    case kCampaign:
      return kind == JobKind::kCampaign;
    case kMatrix:
      return kind == JobKind::kMatrix;
    case kProgram:
      return kind == JobKind::kProgram;
  }
  return false;
}

/// The object section S's accessors read. The scenario section is shared:
/// it is the scenario job's config or the campaign's scenario.
template <Section S, class Spec>
auto& section_of(Spec& spec) {
  if constexpr (S == kHeader) {
    return spec;
  } else if constexpr (S == kScenario) {
    return spec.kind == JobKind::kCampaign ? spec.campaign.config.scenario
                                           : spec.scenario.config;
  } else if constexpr (S == kAttempts) {
    return spec.scenario;
  } else if constexpr (S == kCampaign) {
    return spec.campaign;
  } else if constexpr (S == kMatrix) {
    return spec.matrix.config;
  } else {
    return spec.program;
  }
}

/// How a row's value rides in the text.
enum class Form {
  kLine,          ///< `key=value`
  kBlob,          ///< `key=<length>`, that many raw bytes, then '\n'
  kOptionalBlob,  ///< a kBlob left out when empty
};

/// Accepted integers, where narrower than the field's C++ type.
struct Range {
  std::int64_t lo;
  std::int64_t hi;
};

struct Row {
  std::string_view key;
  Section section;
  /// Reads `value` into the row's field of `spec`, or throws crs::Error.
  void (*read)(const Row& row, JobSpec& spec, const std::string& value);
  /// The row's field of `spec` as text, or throws crs::Error when the
  /// text would read back as a different value.
  std::string (*write)(const Row& row, const JobSpec& spec);
  std::optional<Range> range;
  Form form = Form::kLine;

  std::string what() const { return "job spec: " + std::string(key); }
};

// Enum rows: a value is its name.
std::vector<JobKind> enum_values(JobKind) {
  return {JobKind::kScenario, JobKind::kCampaign, JobKind::kMatrix,
          JobKind::kProgram};
}
std::string enum_name(JobKind kind) { return job_kind_name(kind); }
std::vector<attack::SpectreVariant> enum_values(attack::SpectreVariant) {
  return attack::all_variants();
}
std::string enum_name(attack::SpectreVariant v) {
  return attack::variant_name(v);
}
std::vector<perturb::MimicStyle> enum_values(perturb::MimicStyle) {
  return {perturb::MimicStyle::kHotAlu, perturb::MimicStyle::kStrided,
          perturb::MimicStyle::kBranchy, perturb::MimicStyle::kStores};
}
std::string enum_name(perturb::MimicStyle s) {
  return perturb::mimic_style_name(s);
}

// Field codecs, one overload pair per field type: read_field parses a
// value, write_field prints one.

template <class T>
  requires std::is_arithmetic_v<T>
void read_field(const Row& row, const std::string& v, T& out) {
  out = row.range ? parse_number<T>(row.what(), v,
                                    static_cast<T>(row.range->lo),
                                    static_cast<T>(row.range->hi))
                  : parse_number<T>(row.what(), v);
}
template <class T>
  requires std::is_arithmetic_v<T>
std::string write_field(const Row&, T v) {
  return std::to_string(v);
}

void read_field(const Row& row, const std::string& v, bool& out) {
  if (v != "0" && v != "1") {
    throw Error(row.what() + " wants 0 or 1, got '" + v + "'");
  }
  out = v == "1";
}
std::string write_field(const Row&, bool v) { return v ? "1" : "0"; }

std::string write_field(const Row&, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void read_field(const Row&, const std::string& v, std::string& out) {
  out = v;
}
std::string write_field(const Row&, const std::string& v) { return v; }

template <class E>
  requires std::is_enum_v<E>
void read_field(const Row& row, const std::string& v, E& out) {
  std::string names;
  for (const E e : enum_values(E{})) {
    if (enum_name(e) == v) {
      out = e;
      return;
    }
    names += (names.empty() ? "" : "|") + enum_name(e);
  }
  throw Error(row.what() + " wants one of " + names + ", got '" + v + "'");
}
template <class E>
  requires std::is_enum_v<E>
std::string write_field(const Row&, E v) {
  return enum_name(v);
}

/// Flag sets (harden, mitigations), through their own parse/serialize.
template <class T>
  requires requires(const std::string& text) { T::parse(text); }
void read_field(const Row& row, const std::string& v, T& out) {
  try {
    out = T::parse(v);
  } catch (const Error& e) {
    throw Error(row.what() + ": " + e.what());
  }
}
template <class T>
  requires requires(const T& flags) { flags.serialize(); }
std::string write_field(const Row&, const T& v) {
  return v.serialize();
}

/// Comma lists (mx.presets); the empty list is the empty value, so an
/// item can be neither empty nor hold a comma, read or written.
void check_list_item(const Row& row, const std::string& item) {
  if (item.empty() || item.find(',') != std::string::npos) {
    throw Error(row.what() + ": list item '" + item +
                "' is empty or holds ','");
  }
}
void read_field(const Row& row, const std::string& v,
                std::vector<std::string>& out) {
  out = v.empty() ? std::vector<std::string>{} : split(v, ',');
  for (const auto& item : out) check_list_item(row, item);
}
std::string write_field(const Row& row, const std::vector<std::string>& v) {
  std::string out;
  for (const auto& item : v) {
    check_list_item(row, item);
    out += (out.empty() ? "" : ",") + item;
  }
  return out;
}

/// The row of `key` in section S whose typed accessor `Get` picks its
/// field out of the section object; the field's type picks the codec.
template <Section S, class Get>
constexpr Row row(std::string_view key, Get,
                  std::optional<Range> range = std::nullopt,
                  Form form = Form::kLine) {
  return {key, S,
          [](const Row& r, JobSpec& spec, const std::string& v) {
            read_field(r, v, Get{}(section_of<S>(spec)));
          },
          [](const Row& r, const JobSpec& spec) {
            return write_field(r, Get{}(section_of<S>(spec)));
          },
          range, form};
}

#define CRS_FIELD(member) [](auto& x) -> auto& { return x.member; }

constexpr Row kRows[] = {
    row<kHeader>("kind", CRS_FIELD(kind)),
    row<kHeader>("id", CRS_FIELD(id)),
    row<kScenario>("host", CRS_FIELD(host)),
    row<kScenario>("host_scale", CRS_FIELD(host_scale)),
    row<kScenario>("secret", CRS_FIELD(secret)),
    row<kScenario>("variant", CRS_FIELD(variant)),
    row<kScenario>("rop_injected", CRS_FIELD(rop_injected)),
    row<kScenario>("perturb", CRS_FIELD(perturb)),
    row<kScenario>("p.a", CRS_FIELD(perturb_params.a)),
    row<kScenario>("p.b", CRS_FIELD(perturb_params.b)),
    row<kScenario>("p.loop_count", CRS_FIELD(perturb_params.loop_count)),
    row<kScenario>("p.a_step", CRS_FIELD(perturb_params.a_step)),
    row<kScenario>("p.b_step", CRS_FIELD(perturb_params.b_step)),
    row<kScenario>("p.extra_ladders", CRS_FIELD(perturb_params.extra_ladders)),
    row<kScenario>("p.delay", CRS_FIELD(perturb_params.delay)),
    row<kScenario>("p.style", CRS_FIELD(perturb_params.style)),
    row<kScenario>("p.flushless", CRS_FIELD(perturb_params.flushless)),
    row<kScenario>("canary", CRS_FIELD(canary)),
    row<kScenario>("aslr", CRS_FIELD(aslr)),
    row<kScenario>("harden", CRS_FIELD(harden)),
    row<kScenario>("leak_stage", CRS_FIELD(leak_stage)),
    row<kScenario>("spectre11", CRS_FIELD(spectre11)),
    row<kScenario>("mitigations", CRS_FIELD(mitigations)),
    row<kScenario>("seed", CRS_FIELD(seed)),
    row<kScenario>("prof.window_cycles", CRS_FIELD(profiler.window_cycles)),
    row<kScenario>("prof.max_windows", CRS_FIELD(profiler.max_windows)),
    row<kScenario>("prof.max_instructions",
                   CRS_FIELD(profiler.max_instructions)),
    row<kScenario>("prof.noise_sigma", CRS_FIELD(profiler.noise_sigma)),
    row<kScenario>("prof.background_intensity",
                   CRS_FIELD(profiler.background_intensity)),
    row<kScenario>("prof.noise_seed", CRS_FIELD(profiler.noise_seed)),
    // The mined replay program is a multi-line casm listing.
    row<kScenario>("mined.source", CRS_FIELD(mined_attack_source),
                   std::nullopt, Form::kOptionalBlob),
    // Counts below 1 keep their meaning: a scenario job runs one attempt,
    // a campaign refuses to run.
    row<kAttempts>("attempts", CRS_FIELD(attempts),
                   Range{INT_MIN, kMaxJobAttempts}),
    row<kCampaign>("camp.attempts", CRS_FIELD(config.attempts),
                   Range{INT_MIN, kMaxJobAttempts}),
    row<kCampaign>("camp.online", CRS_FIELD(config.online_hid)),
    row<kCampaign>("camp.dynamic", CRS_FIELD(config.dynamic_perturbation)),
    row<kCampaign>("camp.detect_threshold", CRS_FIELD(config.detect_threshold)),
    row<kCampaign>("camp.evade_threshold", CRS_FIELD(config.evade_threshold)),
    row<kCampaign>("camp.seed", CRS_FIELD(config.seed)),
    row<kCampaign>("det.classifier", CRS_FIELD(config.detector.classifier)),
    row<kCampaign>("det.feature_count",
                   CRS_FIELD(config.detector.feature_count)),
    row<kCampaign>("det.seed", CRS_FIELD(config.detector.seed)),
    row<kCampaign>("camp.corpus_windows", CRS_FIELD(corpus_windows),
                   Range{1, kMaxJobCorpusWindows}),
    row<kCampaign>("camp.corpus_seed", CRS_FIELD(corpus_seed)),
    row<kMatrix>("mx.attempts", CRS_FIELD(attempts),
                 Range{1, kMaxJobMatrixAttempts}),
    row<kMatrix>("mx.seed", CRS_FIELD(seed)),
    row<kMatrix>("mx.host_scale", CRS_FIELD(host_scale)),
    row<kMatrix>("mx.secret", CRS_FIELD(secret)),
    row<kMatrix>("mx.presets", CRS_FIELD(presets)),
    row<kMatrix>("mx.corpus_windows", CRS_FIELD(corpus_windows),
                 Range{1, kMaxJobCorpusWindows}),
    row<kMatrix>("mx.overhead_repeats", CRS_FIELD(overhead_repeats),
                 Range{1, kMaxJobOverheadRepeats}),
    row<kMatrix>("mx.quick", CRS_FIELD(quick)),
    row<kProgram>("prog.max_instructions", CRS_FIELD(max_instructions)),
    row<kProgram>("prog.smc", CRS_FIELD(writable_text)),
    row<kProgram>("prog.source", CRS_FIELD(source), std::nullopt,
                  Form::kBlob),
};

#undef CRS_FIELD

/// Refuses a spec whose fields each read fine but combine into a job no
/// run can execute (ScenarioSession rejects it), naming the key.
void check_runnable(const JobSpec& spec) {
  const auto refuse = [](std::string_view key, std::string_view why) {
    throw Error("job spec: " + std::string(key) + ": " + std::string(why));
  };
  if (spec.kind == JobKind::kMatrix) {
    if (spec.matrix.config.secret.empty()) refuse("mx.secret", "empty");
    return;
  }
  if (!in_section(kScenario, spec.kind)) return;
  const ScenarioConfig& s = section_of<kScenario>(spec);
  if (s.secret.empty()) refuse("secret", "empty");
  if (s.leak_stage && !s.rop_injected) {
    refuse("leak_stage", "needs rop_injected=1");
  }
  if (s.spectre11 && s.rop_injected) {
    refuse("spectre11", "runs standalone, needs rop_injected=0");
  }
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
  check_runnable(spec);
  std::string out = "crs-job v1\n";
  for (const Row& row : kRows) {
    if (!in_section(row.section, spec.kind)) continue;
    const std::string value = row.write(row, spec);
    if (row.form == Form::kLine) {
      if (value.find('\n') != std::string::npos) {
        throw Error(row.what() + ": a line value cannot hold a newline");
      }
      out += std::string(row.key) + "=" + value + "\n";
    } else if (row.form == Form::kBlob || !value.empty()) {
      out += std::string(row.key) + "=" + std::to_string(value.size()) +
             "\n" + value + "\n";
    }
  }
  return out;
}

JobSpec parse_job(const std::string& text) {
  JobSpec spec;
  std::size_t pos = 0;
  bool have_kind = false;
  bool have_blob = false;  // the kind's required blob (prog.source)

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
    std::string value = line.substr(eq + 1);
    if (key == "kind") {
      have_kind = true;
    } else if (!have_kind) {
      throw Error("job spec: '" + key + "' before kind");
    }
    const Row* row = std::find_if(
        std::begin(kRows), std::end(kRows), [&](const Row& r) {
          return r.key == key && in_section(r.section, spec.kind);
        });
    if (row == std::end(kRows)) {
      throw Error("job spec: unknown " + job_kind_name(spec.kind) + " key '" +
                  key + "'");
    }
    if (row->form != Form::kLine) {
      const auto len = parse_number<std::uint64_t>(row->what(), value);
      if (len >= text.size() - pos) {
        throw Error("job spec: truncated " + key + " (wants " +
                    std::to_string(len) + " bytes)");
      }
      if (text[pos + len] != '\n') {
        throw Error("job spec: " + key + " not newline-terminated");
      }
      value = text.substr(pos, len);
      pos += len + 1;
      have_blob = have_blob || row->form == Form::kBlob;
    }
    row->read(*row, spec, value);
  }

  if (!have_kind) throw Error("job spec: missing kind");
  for (const Row& row : kRows) {
    if (row.form == Form::kBlob && in_section(row.section, spec.kind) &&
        !have_blob) {
      throw Error("job spec: " + job_kind_name(spec.kind) + " job without " +
                  std::string(row.key));
    }
  }
  check_runnable(spec);
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

  sim::Machine machine;
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
