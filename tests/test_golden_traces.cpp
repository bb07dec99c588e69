// Golden-trace tier: re-run the canonical small-scale scenarios and demand
// byte-identical CSV traces against the references in tests/golden. A
// mismatch prints a row-level diff; intentional changes are blessed with
// `crs_fuzz --update-golden`. The quick defense grids are pinned the same
// way against tests/golden/grid (regenerated with crs_matrix, see
// docs/TESTING.md).
#include <gtest/gtest.h>

#include <string>

#include "core/defense_matrix.hpp"
#include "core/harden_matrix.hpp"
#include "core/report.hpp"
#include "fuzz/golden.hpp"
#include "support/error.hpp"

#ifndef CRS_GOLDEN_DIR
#define CRS_GOLDEN_DIR "tests/golden"
#endif

namespace {

using namespace crs;

class GoldenTrace : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenTrace, MatchesCheckedInReference) {
  const auto& name = GetParam();
  const auto path = std::string(CRS_GOLDEN_DIR) + "/" + name + ".csv";
  std::string golden;
  ASSERT_NO_THROW(golden = core::read_text_file(path))
      << "missing reference — run `crs_fuzz --update-golden`";
  const auto live = fuzz::golden_csv(name);
  const auto diff = fuzz::diff_csv(name, golden, live);
  EXPECT_TRUE(diff.empty()) << diff;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, GoldenTrace,
                         ::testing::Values("benign", "spectre", "crspectre"),
                         [](const auto& info) { return info.param; });

/// `crs_matrix [--harden-sweep] --quick` at its defaults: seed 23, host
/// scale 8000.
template <typename Config>
Config quick_grid_config() {
  Config cfg;
  cfg.quick = true;
  cfg.seed = 23;
  cfg.host_scale = 8000;
  return cfg;
}

void expect_grid_golden(const std::string& file, const std::string& live) {
  const auto path = std::string(CRS_GOLDEN_DIR) + "/grid/" + file;
  std::string golden;
  ASSERT_NO_THROW(golden = core::read_text_file(path)) << "missing " << path;
  EXPECT_EQ(golden, live) << file << " moved; see docs/TESTING.md";
}

TEST(GoldenGrid, QuickDefenseMatrixMatchesCheckedInCsvs) {
  const auto result =
      core::run_defense_matrix(quick_grid_config<core::DefenseMatrixConfig>());
  expect_grid_golden("matrix.csv", core::matrix_csv(result));
  expect_grid_golden("matrix_metrics.csv", core::matrix_metrics_csv(result));
}

TEST(GoldenGrid, QuickHardenSweepMatchesCheckedInCsvs) {
  const auto result =
      core::run_harden_matrix(quick_grid_config<core::HardenMatrixConfig>());
  expect_grid_golden("harden.csv", core::harden_matrix_csv(result));
  expect_grid_golden("harden_metrics.csv",
                     core::harden_matrix_metrics_csv(result));
}

TEST(GoldenCsv, DeterministicAcrossRuns) {
  EXPECT_EQ(fuzz::golden_csv("benign"), fuzz::golden_csv("benign"));
}

TEST(GoldenCsv, UnknownScenarioThrows) {
  EXPECT_THROW(fuzz::golden_csv("nope"), Error);
}

TEST(GoldenDiff, ReportsRowAndColumnOfChange) {
  const std::string golden = "a,b,c\n1.0,2.0,3.0\n4.0,5.0,6.0\n";
  const std::string live = "a,b,c\n1.0,2.0,3.0\n4.0,9.9,6.0\n";
  const auto diff = fuzz::diff_csv("demo", golden, live);
  ASSERT_FALSE(diff.empty());
  EXPECT_NE(diff.find("row 2"), std::string::npos) << diff;
  EXPECT_NE(diff.find("[b]"), std::string::npos) << diff;
  EXPECT_NE(diff.find("golden=5.0"), std::string::npos) << diff;
  EXPECT_NE(diff.find("live=9.9"), std::string::npos) << diff;
  EXPECT_NE(diff.find("--update-golden"), std::string::npos) << diff;
}

TEST(GoldenDiff, ReportsHeaderAndRowCountChanges) {
  EXPECT_NE(fuzz::diff_csv("demo", "a,b\n1,2\n", "a,z\n1,2\n").find("header"),
            std::string::npos);
  EXPECT_NE(
      fuzz::diff_csv("demo", "a,b\n1,2\n", "a,b\n1,2\n3,4\n").find("row count"),
      std::string::npos);
  EXPECT_TRUE(fuzz::diff_csv("demo", "a,b\n1,2\n", "a,b\n1,2\n").empty());
}

}  // namespace
