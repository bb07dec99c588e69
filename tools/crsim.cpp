// crsim — assemble and run a program on the simulated machine.
//
//   crsim prog.s [arg1 arg2 ...]     assemble + run, print output and PMU
//   crsim --disasm prog.s            assemble and print the listing
//   crsim --threads N ...            pin the worker-pool size for any
//                                    library code that fans out
//   crsim --bench-json <path> ...    append a {"name",...} JSON line with
//                                    the run's wall time and retired/s
//   crsim --trace <out.json> ...     write a Chrome trace_event JSON of the
//                                    run (chrome://tracing / Perfetto)
//   crsim --metrics <out.csv> ...    write the metrics registry as CSV
//   crsim --mitigations <set> ...    run under a mitigation preset (none,
//                                    lfence-bounds, slh, retpoline,
//                                    flush-on-switch, partition, ward-split,
//                                    full) or a comma-joined flag list;
//                                    unknown names are rejected with the
//                                    valid listing
//   crsim --harden <set> ...         run under a hardening preset (none,
//                                    aslr, canary, heap-guard, full) or a
//                                    comma-joined flag list. aslr relocates
//                                    the image/stack per the kernel seed;
//                                    heap-guard arms the redzone checks.
//                                    The canary flag only takes effect for
//                                    programs that declare a `__canary`
//                                    slot (the workload scaffold does)
//   crsim --exec interp|blocks ...   pick the execution engine: the
//                                    per-instruction interpreter or the
//                                    threaded-code block engine (default;
//                                    bit-identical, ~3x faster); recorded
//                                    in the --bench-json line
//
// The runtime library (print/exit_/memcpy/... and the gadget-donating
// helpers) is linked in automatically, exactly as for the built-in
// workloads. Use this to write your own victims and attacks.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "core/report.hpp"
#include "harden/config.hpp"
#include "mitigate/config.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/cpu.hpp"
#include "sim/kernel.hpp"
#include "support/error.hpp"
#include "support/flags.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"

namespace {

/// Prints one armed defense layer's summary to stderr — its `setting` and
/// event total, then each nonzero counter tagged `[layer]` — and publishes
/// the counters under `layer`.
template <typename Summary>
void report_layer(const std::string& setting, const char* layer,
                  const crs::CounterTable<Summary>& fields,
                  const Summary& sum) {
  std::fprintf(stderr, "[crsim] %s events=%llu\n", setting.c_str(),
               static_cast<unsigned long long>(fields.total(sum)));
  for (const auto& f : fields) {
    if (sum.*(f.member) != 0) {
      std::fprintf(stderr, "[%s] %-28s %llu\n", layer, f.name,
                   static_cast<unsigned long long>(sum.*(f.member)));
    }
  }
  fields.publish(sum, layer);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace crs;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: crsim [--disasm] [--threads N] [--bench-json <path>] "
                 "[--trace <out.json>] [--metrics <out.csv>] "
                 "[--mitigations <preset|flags>] [--harden <preset|flags>] "
                 "[--exec interp|blocks] <prog.s> [args...]\n"
                 "       assembles with the runtime library and runs the "
                 "program on the simulator\n");
    return 2;
  }

  try {
    bool disasm = false;
    std::string json_path;
    std::string trace_path;
    std::string metrics_path;
    mitigate::MitigationConfig mitigations;
    harden::HardenConfig harden;
    std::string value;
    FlagCursor args(argc, argv);
    while (args.more_flags()) {
      unsigned threads = 0;
      if (args.take("--disasm")) {
        disasm = true;
      } else if (args.take_value("--mitigations", value)) {
        mitigations = mitigate::MitigationConfig::parse(value);
      } else if (args.take_value("--harden", value)) {
        harden = harden::HardenConfig::parse(value);
      } else if (args.take_value("--exec", value)) {
        sim::apply_exec_flag(value);
      } else if (args.take_number("--threads", threads)) {
        set_thread_override(threads);
      } else if (args.take_value("--bench-json", json_path)) {
      } else if (args.take_value("--trace", trace_path)) {
      } else if (args.take_value("--metrics", metrics_path)) {
      } else {
        args.unknown();
      }
    }
    if (!args.more()) {
      std::fprintf(stderr, "missing input file\n");
      return 2;
    }
    const std::string path = args.take_positional();
    const sim::Program program = casm::assemble(
        core::read_text_file(path) + casm::runtime_library(),
        {.name = path, .link_base = 0x10000});

    if (disasm) {
      std::fputs(casm::disassemble_text(program).c_str(), stdout);
      return 0;
    }

    std::vector<std::string> prog_args{path};
    while (args.more()) prog_args.push_back(args.take_positional());

    if (!trace_path.empty()) obs::set_tracing_enabled(true);

    sim::MachineConfig mcfg;
    sim::KernelConfig kcfg;
    mitigations.apply(mcfg, kcfg);
    harden.apply(kcfg);
    sim::Machine machine(mcfg);
    sim::Kernel kernel(machine, kcfg);
    const mitigate::Armed armed = mitigate::arm(kernel, mitigations);
    kernel.register_binary(path, program);
    kernel.start_with_strings(path, prog_args);
    obs::ScopedSpan run_span("crsim.run", machine.cpu().cycle());
    const auto t0 = std::chrono::steady_clock::now();
    const auto reason = kernel.run(2'000'000'000);
    run_span.close(machine.cpu().cycle());
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();

    if (!kernel.output_string().empty()) {
      std::printf("%s", kernel.output_string().c_str());
      if (kernel.output_string().back() != '\n') std::printf("\n");
    }
    switch (reason) {
      case sim::StopReason::kHalted:
        std::fprintf(stderr, "[crsim] exit %lld\n",
                     static_cast<long long>(kernel.exit_code()));
        break;
      case sim::StopReason::kFault:
        std::fprintf(stderr, "[crsim] FAULT kind=%d at pc=%s addr=%s\n",
                     static_cast<int>(machine.cpu().fault().kind),
                     hex(machine.cpu().fault().pc).c_str(),
                     hex(machine.cpu().fault().addr).c_str());
        break;
      default:
        std::fprintf(stderr, "[crsim] instruction limit reached\n");
        break;
    }
    std::fprintf(stderr,
                 "[crsim] %llu instructions, %llu cycles (IPC %.3f)\n",
                 static_cast<unsigned long long>(machine.cpu().retired()),
                 static_cast<unsigned long long>(machine.cpu().cycle()),
                 static_cast<double>(machine.cpu().retired()) /
                     static_cast<double>(machine.cpu().cycle()));
    for (std::size_t i = 0; i < sim::kEventCount; ++i) {
      const auto e = static_cast<sim::Event>(i);
      std::fprintf(stderr, "[pmu] %-20s %llu\n",
                   std::string(sim::event_name(e)).c_str(),
                   static_cast<unsigned long long>(machine.pmu().count(e)));
    }
    if (!trace_path.empty()) {
      obs::set_tracing_enabled(false);
      core::write_text_file(trace_path, obs::TraceSink::instance().chrome_json());
      std::fprintf(stderr, "[crsim] wrote %zu trace events to %s\n",
                   obs::TraceSink::instance().event_count(),
                   trace_path.c_str());
    }
    if (mitigations.any()) {
      report_layer("mitigations=" + mitigations.serialize(), "mitigate",
                   mitigate::summary_fields(),
                   mitigate::summarize(machine, kernel, armed));
    }
    if (harden.any()) {
      report_layer("harden=" + harden.serialize(), "harden",
                   harden::summary_fields(), harden::summarize(kernel, harden));
    }
    if (!metrics_path.empty()) {
      machine.publish_metrics("sim");
      core::write_text_file(metrics_path,
                            obs::MetricsRegistry::instance().csv());
      std::fprintf(stderr, "[crsim] wrote %zu metrics to %s\n",
                   obs::MetricsRegistry::instance().size(),
                   metrics_path.c_str());
    }
    if (!json_path.empty()) {
      core::append_bench_record(
          json_path, "crsim:" + path, wall_ms,
          static_cast<double>(machine.cpu().retired()) / (wall_ms / 1e3),
          mitigations.any() ? mitigations.serialize() : "");
    }
    return reason == sim::StopReason::kHalted
               ? static_cast<int>(kernel.exit_code())
               : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "crsim: %s\n", e.what());
    return 1;
  }
}
