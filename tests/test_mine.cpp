// Tier-7: speculation-aware gadget mining (src/mine).
//
// Property contract of the miner:
//   * every mined gadget validates dynamically — the transient replay either
//     leaks a planted secret byte or observably perturbs the probe set;
//   * mined sets are byte-identical for any CRS_THREADS and when the same
//     corpus is mined twice;
//   * hand-written true seeds are found, hand-written false seeds (fenced,
//     fence-in-window, out-of-window, clean) are rejected;
//   * every scenario-eligible gadget replays as a real leak through
//     core::run_scenario, standalone and ROP-injected.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "core/job.hpp"
#include "core/report.hpp"
#include "core/scenario.hpp"
#include "mine/mine.hpp"
#include "mitigate/fence_pass.hpp"
#include "support/parallel.hpp"

#ifndef CRS_FUZZ_CORPUS_DIR
#define CRS_FUZZ_CORPUS_DIR "tests/fuzz_corpus"
#endif
#ifndef CRS_GOLDEN_DIR
#define CRS_GOLDEN_DIR "tests/golden"
#endif

namespace {

using namespace crs;

std::string read_seed(const std::string& name) {
  return core::read_text_file(std::string(CRS_FUZZ_CORPUS_DIR) + "/" + name);
}

sim::Program assemble_seed(const std::string& source,
                           const mine::MineOptions& opt = {}) {
  return casm::assemble(source + casm::runtime_library(),
                        {.name = "seed", .link_base = opt.link_base});
}

std::vector<mine::WindowCandidate> classify_seed(
    const std::string& name, const mine::MineOptions& opt = {}) {
  const sim::Program program = assemble_seed(read_seed(name), opt);
  return mine::classify_program(program, opt);
}

/// Small deterministic corpus reused by the property tests: a few biased
/// generated programs plus both hand-written true seeds.
mine::CorpusOptions small_corpus() {
  mine::CorpusOptions opt;
  opt.generated = 3;
  opt.seed = 2026;
  opt.gadget_bias = 60;
  opt.sources.emplace_back("mine_true_pht.casm", read_seed("mine_true_pht.casm"));
  opt.sources.emplace_back("mine_true_rsb.casm", read_seed("mine_true_rsb.casm"));
  return opt;
}

// --- classifier precision on hand seeds -----------------------------------

TEST(MineClassify, FindsTruePhtSeed) {
  const auto cands = classify_seed("mine_true_pht.casm");
  ASSERT_EQ(cands.size(), 1u);
  const auto& c = cands[0];
  EXPECT_EQ(c.trigger, mine::TriggerKind::kCondBranch);
  EXPECT_FALSE(c.window_taken);  // the leak body is the fall-through side
  EXPECT_EQ(c.attacker_reg, 1);
  EXPECT_EQ(c.load_width, 1);
  EXPECT_GT(c.load_addr, c.window_addr);
  EXPECT_GT(c.xmit_addr, c.load_addr);
  EXPECT_LE(c.window_len, 7);
}

TEST(MineClassify, FindsTrueRsbSeed) {
  const auto cands = classify_seed("mine_true_rsb.casm");
  ASSERT_EQ(cands.size(), 1u);
  EXPECT_EQ(cands[0].trigger, mine::TriggerKind::kPostCall);
  EXPECT_EQ(cands[0].attacker_reg, 1);
}

TEST(MineClassify, RejectsFenceBetweenLoadAndTransmit) {
  EXPECT_TRUE(classify_seed("mine_false_fence_between.casm").empty());
}

TEST(MineClassify, RejectsTransmitOutsideSpeculationWindow) {
  EXPECT_TRUE(classify_seed("mine_false_out_of_window.casm").empty());
}

TEST(MineClassify, RejectsCleanProgram) {
  EXPECT_TRUE(classify_seed("mine_false_clean.casm").empty());
}

TEST(MineClassify, FencePassHintsCloseCondBranchWindows) {
  // The same transmitter shape classifies before the mitigation fence pass
  // and must stop classifying after it plants branch hints.
  const mine::MineOptions opt;
  sim::Program program = assemble_seed(read_seed("mine_false_fenced.casm"), opt);
  ASSERT_EQ(mine::classify_program(program, opt).size(), 1u);
  const auto stats = mitigate::insert_bounds_fences(program);
  EXPECT_GT(stats.fences_planted, 0u);
  EXPECT_TRUE(mine::classify_program(program, opt).empty());
}

// --- dynamic validation property ------------------------------------------

TEST(MineProperties, EveryMinedGadgetValidatesDynamically) {
  const mine::CorpusReport report = mine::mine_corpus(small_corpus());
  EXPECT_GE(report.gadgets, 3u);
  for (const auto& b : report.binaries) {
    EXPECT_TRUE(b.error.empty()) << b.name << ": " << b.error;
    for (const auto& g : b.gadgets) {
      EXPECT_NE(g.validation, mine::Validation::kNone)
          << b.name << " gadget @" << std::hex << g.window.window_addr;
      if (g.scenario_eligible) {
        EXPECT_FALSE(g.attack_source.empty());
      }
    }
  }
  EXPECT_EQ(report.gadgets, report.leaks + report.perturbs);
}

TEST(MineProperties, MinedSetByteIdenticalForAnyThreadCount) {
  const auto opt = small_corpus();
  std::vector<std::string> csvs;
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_thread_override(threads);
    csvs.push_back(mine::corpus_csv(mine::mine_corpus(opt)));
  }
  set_thread_override(0);
  EXPECT_EQ(csvs[0], csvs[1]);
  EXPECT_EQ(csvs[0], csvs[2]);
  EXPECT_NE(csvs[0].find("leak"), std::string::npos);
}

TEST(MineProperties, MinedSetByteIdenticalWhenMinedTwice) {
  const auto opt = small_corpus();
  const std::string first = mine::corpus_csv(mine::mine_corpus(opt));
  EXPECT_EQ(first, mine::corpus_csv(mine::mine_corpus(opt)));
}

// --- the trigger's line comes from casm --------------------------------------

TEST(MineLayout, SameProgramInOtherSpellingsMinesTheSameGadgets) {
  // The validator plants its trigger label on the line casm's listing names,
  // so two spellings the assembler lays out alike mine alike. A copy of the
  // assembler's layout rules in the miner once rejected mine_g0's gadget
  // when `.byte` was spelled `.BYTE` (a directive unknown to the copy) or
  // when `.word 0,,0` (16 bytes to the assembler, 24 to the copy) stood in
  // for `.byte 0, 0, 0, 0`.
  const std::string as_is =
      core::read_text_file(std::string(CRS_GOLDEN_DIR) +
                           "/mine_corpus/mine_g0.casm");
  const std::string byte_line = "  .byte 0, 0, 0, 0\n";
  const std::size_t at = as_is.find(byte_line);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(as_is.find(byte_line, at + 1), std::string::npos);
  const auto respelled = [&](const std::string& line) {
    std::string s = as_is;
    return s.replace(at, byte_line.size(), line);
  };
  const auto expect_same_gadgets = [](const std::string& a,
                                      const std::string& b) {
    const mine::BinaryReport ra = mine::mine_source("mine_g0", a);
    const mine::BinaryReport rb = mine::mine_source("mine_g0", b);
    EXPECT_TRUE(ra.error.empty() && rb.error.empty()) << ra.error << rb.error;
    const std::string csv = mine::corpus_csv({.binaries = {ra}});
    EXPECT_NE(csv.find(",leak,77,yes\n"), std::string::npos) << csv;
    EXPECT_EQ(mine::corpus_csv({.binaries = {rb}}), csv);
    if (ra.gadgets.size() == rb.gadgets.size()) {
      for (std::size_t i = 0; i < ra.gadgets.size(); ++i) {
        EXPECT_TRUE(ra.gadgets[i].attack_source == rb.gadgets[i].attack_source)
            << "gadget " << i << "'s replay program differs";
      }
    }
  };
  expect_same_gadgets(as_is, respelled("  .BYTE 0, 0, 0, 0\n"));
  expect_same_gadgets(respelled("  .word 0, 0\n"), respelled("  .word 0,,0\n"));
}

// --- class split -----------------------------------------------------------

TEST(MineProperties, PostCallUpgradesToCrSpectreOnlyWhenRopDrivable) {
  // The runtime library provides `pop r0..r3; ret` and a syscall gadget, so
  // a window fed by r1 is drivable by a classic ROP chain -> cr-spectre. A
  // window fed by r4 has no matching pop gadget -> plain spectre-rsb.
  const std::string r1_src = read_seed("mine_true_rsb.casm");
  std::string r4_src = r1_src;
  const auto pos = r4_src.find("add r12, r12, r1");
  ASSERT_NE(pos, std::string::npos);
  r4_src.replace(pos, 16, "add r12, r12, r4");

  mine::MineOptions opt;
  const auto r1_report = mine::mine_source("rsb_r1", r1_src, opt);
  ASSERT_EQ(r1_report.gadgets.size(), 1u);
  EXPECT_EQ(r1_report.gadgets[0].cls, mine::GadgetClass::kCrSpectre);

  opt.attacker_regs = {4};
  const auto r4_report = mine::mine_source("rsb_r4", r4_src, opt);
  ASSERT_EQ(r4_report.gadgets.size(), 1u);
  EXPECT_EQ(r4_report.gadgets[0].cls, mine::GadgetClass::kRsb);
}

// --- mined scenarios replay as real leaks ----------------------------------

TEST(MineScenario, StandaloneReplayRecoversSecret) {
  const auto report =
      mine::mine_source("mine_true_pht.casm", read_seed("mine_true_pht.casm"));
  ASSERT_EQ(report.gadgets.size(), 1u);
  const auto& g = report.gadgets[0];
  ASSERT_TRUE(g.scenario_eligible);

  core::ScenarioConfig sc =
      mine::mined_scenario(g, "CRSPECTRE-SECRET", /*injected=*/false);
  const core::ScenarioRun run = core::run_scenario(sc);
  EXPECT_TRUE(run.attack_launched);
  EXPECT_TRUE(run.secret_recovered) << "recovered: '" << run.recovered << "'";
  EXPECT_EQ(run.recovered, "CRSPECTRE-SECRET");
}

TEST(MineScenario, InjectedReplayLeaksHostSecret) {
  const auto report =
      mine::mine_source("mine_true_rsb.casm", read_seed("mine_true_rsb.casm"));
  ASSERT_EQ(report.gadgets.size(), 1u);
  ASSERT_TRUE(report.gadgets[0].scenario_eligible);

  core::ScenarioConfig sc = mine::mined_scenario(
      report.gadgets[0], "CRSPECTRE-SECRET", /*injected=*/true);
  sc.host_scale = 4000;
  const core::ScenarioRun run = core::run_scenario(sc);
  EXPECT_TRUE(run.attack_launched);
  EXPECT_TRUE(run.secret_recovered) << "recovered: '" << run.recovered << "'";
}

// --- job-spec round trip ----------------------------------------------------

TEST(MineJobSpec, MinedSourceRoundTripsThroughJobSpec) {
  core::JobSpec spec;
  spec.kind = core::JobKind::kScenario;
  spec.id = 7;
  spec.scenario.attempts = 2;
  spec.scenario.config.rop_injected = false;
  spec.scenario.config.mined_attack_source =
      "; mined replay\n_start:\n  halt\n";

  const std::string text = core::serialize_job(spec);
  EXPECT_NE(text.find("mined.source="), std::string::npos);
  const core::JobSpec parsed = core::parse_job(text);
  EXPECT_EQ(parsed.scenario.config.mined_attack_source,
            spec.scenario.config.mined_attack_source);
  // Round-tripping the parsed spec is byte-stable.
  EXPECT_EQ(core::serialize_job(parsed), text);

  // Configs without a mined source do not emit the key at all.
  spec.scenario.config.mined_attack_source.clear();
  EXPECT_EQ(core::serialize_job(spec).find("mined.source="),
            std::string::npos);
}

}  // namespace
