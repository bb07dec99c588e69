#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "bench_util.hpp"
#include "core/report.hpp"
#include "hid/features.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace crs::core {
namespace {

std::vector<hid::WindowSample> fake_windows() {
  std::vector<hid::WindowSample> out(3);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].delta[static_cast<std::size_t>(sim::Event::kInstructions)] =
        1000 * (i + 1);
    out[i].delta[static_cast<std::size_t>(sim::Event::kCycles)] =
        2000 * (i + 1);
    out[i].delta[static_cast<std::size_t>(sim::Event::kL1dMisses)] = 5 * i;
    out[i].injected = i == 1;
  }
  return out;
}

TEST(Report, WindowsCsvHasHeaderAndRows) {
  const auto csv = windows_to_csv(fake_windows());
  const auto lines = split(csv, '\n');
  ASSERT_GE(lines.size(), 4u);  // header + 3 rows (+ trailing empty)
  EXPECT_NE(lines[0].find("cycles,instructions"), std::string::npos);
  EXPECT_NE(lines[0].find("total_cache_accesses,injected"), std::string::npos);
  // Column count = universe + injected flag, constant across rows.
  const auto header_cols = split(lines[0], ',').size();
  EXPECT_EQ(header_cols, hid::feature_universe_size() + 1);
  for (int r = 1; r <= 3; ++r) {
    EXPECT_EQ(split(lines[r], ',').size(), header_cols) << "row " << r;
  }
  // The injected flag lands in the last column.
  EXPECT_EQ(split(lines[1], ',').back(), "0");
  EXPECT_EQ(split(lines[2], ',').back(), "1");
}

TEST(Report, CampaignCsvRoundTripsRecords) {
  CampaignResult result;
  AttemptRecord a;
  a.attempt = 1;
  a.detection_rate = 0.25;
  a.evaded = true;
  a.secret_recovered = true;
  a.attack_window_count = 42;
  result.attempts.push_back(a);
  a.attempt = 2;
  a.detection_rate = 0.95;
  a.detected = true;
  a.evaded = false;
  a.mutated_after = true;
  result.attempts.push_back(a);

  const auto csv = campaign_to_csv(result);
  const auto lines = split(csv, '\n');
  ASSERT_GE(lines.size(), 3u);
  EXPECT_NE(lines[0].find("attempt,detection_rate"), std::string::npos);
  EXPECT_NE(lines[1].find("1,0.2500,0,1,0,1,"), std::string::npos);
  EXPECT_NE(lines[2].find("2,0.9500,1,0,1,1,"), std::string::npos);
  EXPECT_NE(lines[2].find("\"a="), std::string::npos) << "variant quoted";
}

TEST(Report, WriteTextFileRoundTrip) {
  const std::string path = "/tmp/crs_report_test.csv";
  write_text_file(path, "a,b\n1,2\n");
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "a,b");
  std::remove(path.c_str());
}

TEST(Report, WriteToBadPathThrows) {
  EXPECT_THROW(write_text_file("/nonexistent-dir/x.csv", "data"), Error);
}

/// The JSON string whose opening quote ends at `at`, unescaped; fails the
/// test when it is not terminated.
std::string read_json_string(const std::string& text, std::size_t at) {
  std::string out;
  for (std::size_t i = at; i < text.size(); ++i) {
    if (text[i] == '"') return out;
    if (text[i] == '\\' && ++i < text.size()) {
      switch (text[i]) {
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'u':
          out += static_cast<char>(std::stoi(text.substr(i + 1, 4), nullptr,
                                             16));
          i += 4;
          break;
        default: out += text[i];
      }
    } else {
      out += text[i];
    }
  }
  ADD_FAILURE() << "unterminated JSON string in " << text;
  return out;
}

TEST(Report, BenchRecordNameIsJsonEscaped) {
  // `crsim --bench-json rec.json 'a"b.s'` once wrote
  // {"name":"crsim:a"b.s",...}, which no JSON reader accepts.
  const std::string path = ::testing::TempDir() + "crs_bench_record.json";
  std::remove(path.c_str());
  const std::string name = "crsim:a\"b\\c\n.s";
  append_bench_record(path, name, 1.5, 2.0);
  append_bench_record(path, "fig5_offline_hid", 3.0, 4.0);
  const auto lines = split(read_text_file(path), '\n');
  ASSERT_EQ(lines.size(), 3u);  // two records + trailing empty
  const std::string head = "{\"name\":\"";
  ASSERT_EQ(lines[0].rfind(head, 0), 0u) << lines[0];
  EXPECT_EQ(read_json_string(lines[0], head.size()), name);
  EXPECT_EQ(lines[0].rfind(R"({"name":"crsim:a\"b\\c\n.s","wall_ms":1.500,)"
                           R"("items_per_s":2.000,"config":{)",
                           0),
            0u)
      << lines[0];
  // A plain name is written as it is.
  EXPECT_EQ(lines[1].rfind(R"({"name":"fig5_offline_hid","wall_ms":3.000,)"
                           R"("items_per_s":4.000,"config":{)",
                           0),
            0u)
      << lines[1];
  std::remove(path.c_str());
  EXPECT_THROW(append_bench_record("/nonexistent-dir/x.json", name, 1, 1),
               Error);
}

TEST(Report, AttemptRecordsEscapeTheNameAndRaise) {
  // BenchIo::emit_attempts printed the name with %s and dropped every
  // record when the file could not be opened.
  const std::string path = ::testing::TempDir() + "crs_attempt_records.json";
  std::remove(path.c_str());
  const auto bench_io = [](std::string json_path) {
    std::string prog = "bench", flag = "--bench-json";
    char* argv[] = {prog.data(), flag.data(), json_path.data()};
    int argc = 3;
    return bench::BenchIo(argc, argv);
  };
  CampaignResult result;
  result.attempts.resize(2);
  result.attempts[0].attempt = 1;
  result.attempts[1].attempt = 2;
  const std::string name = "fig\"5\\b";
  bench_io(path).emit_attempts(name, result);
  const auto lines = split(read_text_file(path), '\n');
  ASSERT_EQ(lines.size(), 3u);  // two records + trailing empty
  const std::string head = "{\"name\":\"";
  for (int a = 1; a <= 2; ++a) {
    const std::string& line = lines[static_cast<std::size_t>(a - 1)];
    ASSERT_EQ(line.rfind(head, 0), 0u) << line;
    EXPECT_EQ(read_json_string(line, head.size()),
              name + ":attempt" + std::to_string(a));
  }
  std::remove(path.c_str());
  EXPECT_THROW(bench_io("/nonexistent-dir/x.json").emit_attempts(name, result),
               Error);
}

TEST(Report, EmptyInputsProduceHeadersOnly) {
  const auto wcsv = windows_to_csv({});
  EXPECT_EQ(split(wcsv, '\n').size(), 2u);  // header + trailing empty
  const auto ccsv = campaign_to_csv(CampaignResult{});
  EXPECT_EQ(split(ccsv, '\n').size(), 2u);
}

}  // namespace
}  // namespace crs::core
