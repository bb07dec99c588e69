#include "core/report.hpp"

#include <fstream>
#include <sstream>

#include "hid/features.hpp"
#include "obs/trace.hpp"
#include "sim/cpu.hpp"
#include "support/error.hpp"
#include "support/parallel.hpp"
#include "support/strings.hpp"

namespace crs::core {

std::string windows_to_csv(const std::vector<hid::WindowSample>& windows) {
  std::string out;
  for (std::size_t j = 0; j < hid::feature_universe_size(); ++j) {
    out += hid::feature_name(j);
    out += ',';
  }
  out += "injected\n";
  for (const auto& w : windows) {
    const auto f = hid::feature_vector(w.delta);
    for (const double v : f) {
      out += fixed(v, 4);
      out += ',';
    }
    out += w.injected ? '1' : '0';
    out += '\n';
  }
  return out;
}

std::string campaign_to_csv(const CampaignResult& result) {
  std::string out =
      "attempt,detection_rate,detected,evaded,mutated_after,"
      "secret_recovered,host_ipc,attack_windows,variant\n";
  for (const auto& a : result.attempts) {
    out += std::to_string(a.attempt) + ',';
    out += fixed(a.detection_rate, 4) + ',';
    out += std::to_string(a.detected ? 1 : 0) + ',';
    out += std::to_string(a.evaded ? 1 : 0) + ',';
    out += std::to_string(a.mutated_after ? 1 : 0) + ',';
    out += std::to_string(a.secret_recovered ? 1 : 0) + ',';
    out += fixed(a.host_ipc, 4) + ',';
    out += std::to_string(a.attack_window_count) + ',';
    out += '"' + a.params.describe() + "\"\n";
  }
  return out;
}

std::string bench_config_json(const std::string& mitigations) {
  std::string out = "{\"threads\":";
  out += std::to_string(resolve_thread_count());
  out += ",\"exec\":\"";
  out += sim::exec_engine_name(sim::default_exec_engine());
  out += "\",\"mitigations\":\"";
  out += mitigations.empty() ? "none" : mitigations;
  out += "\"}";
  return out;
}

namespace {

void write_file(const std::string& path, const std::string& content,
                std::ios::openmode mode) {
  std::ofstream f(path, std::ios::binary | mode);
  CRS_ENSURE(f.good(), "cannot open '" + path + "' for writing");
  f << content;
  CRS_ENSURE(f.good(), "write to '" + path + "' failed");
}

}  // namespace

std::string read_text_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_text_file(const std::string& path, const std::string& content) {
  write_file(path, content, std::ios::trunc);
}

void append_text_file(const std::string& path, const std::string& content) {
  write_file(path, content, std::ios::app);
}

void append_bench_record(const std::string& path, const std::string& name,
                         double wall_ms, double items_per_s,
                         const std::string& mitigations) {
  append_text_file(path, "{\"name\":\"" + obs::json_escape(name) +
                             "\",\"wall_ms\":" + fixed(wall_ms, 3) +
                             ",\"items_per_s\":" + fixed(items_per_s, 3) +
                             ",\"config\":" + bench_config_json(mitigations) +
                             "}\n");
}

}  // namespace crs::core
