// Fuzz-regression tier: replay every minimized repro / hand-written seed in
// tests/fuzz_corpus through the full differential oracle, plus determinism
// and minimizer unit coverage for the fuzz subsystem itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "fuzz/differ.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/minimize.hpp"
#include "obs/metrics.hpp"
#include "sim/kernel.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

#ifndef CRS_FUZZ_CORPUS_DIR
#define CRS_FUZZ_CORPUS_DIR "tests/fuzz_corpus"
#endif

namespace {

using namespace crs;

struct CorpusEntry {
  std::string name;
  std::string source;
  bool smc = false;
  bool rdcycle = false;
};

// Header lines are `; key: value` comments; the assembler ignores them, the
// replayer needs smc (RWX text) and rdcycle (exact-only configs).
CorpusEntry load_corpus_file(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in) << "cannot open " << path;
  CorpusEntry entry;
  entry.name = path.filename().string();
  std::ostringstream src;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("; smc:", 0) == 0) {
      entry.smc = line.find('1') != std::string::npos;
    } else if (line.rfind("; rdcycle:", 0) == 0) {
      entry.rdcycle = line.find('1') != std::string::npos;
    }
    src << line << '\n';
  }
  entry.source = src.str();
  return entry;
}

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  const std::filesystem::path dir = CRS_FUZZ_CORPUS_DIR;
  if (std::filesystem::exists(dir)) {
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      if (e.path().extension() == ".casm") files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

TEST(FuzzCorpus, HasSeedEntries) {
  // The hand-written seeds must always be present; minimized repros from
  // fuzzing sessions accumulate alongside them.
  EXPECT_GE(corpus_files().size(), 4u);
}

TEST(FuzzCorpus, ReplayAllEntriesCleanly) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const auto entry = load_corpus_file(path);
    const auto div = fuzz::check_source(entry.source, entry.smc, entry.rdcycle);
    EXPECT_FALSE(div.has_value())
        << entry.name << ": " << (div ? div->kind + ": " + div->detail : "");
  }
}

// Cross-check tier: the observability cache stats must reconcile exactly
// with the PMU for every corpus program, both as raw struct counters and
// after publication into the metrics registry. (The differential oracle
// also checks the raw identities on every run — this test additionally
// pins the publish_metrics plumbing.)
TEST(FuzzCorpus, CacheStatsReconcileWithPmuForAllEntries) {
  for (const auto& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    const auto entry = load_corpus_file(path);
    const auto program =
        casm::assemble(entry.source + casm::runtime_library(),
                       {.name = "xcheck", .link_base = 0x10000});
    sim::Machine machine;
    sim::Kernel kernel(machine);
    kernel.register_binary("/bin/fuzz", program);
    kernel.start_with_strings("/bin/fuzz", {"fuzz"});
    if (entry.smc) {
      const auto& img = kernel.main_image();
      const auto page = sim::Memory::kPageSize;
      const auto lo = img.lo / page * page;
      const auto hi = (img.hi + page - 1) / page * page;
      machine.memory().set_permissions(
          lo, hi - lo,
          static_cast<sim::Perm>(sim::kPermRead | sim::kPermWrite |
                                 sim::kPermExec));
    }
    kernel.run(2'000'000);

    const auto& pmu = machine.pmu();
    const auto count = [&](sim::Event e) { return pmu.count(e); };
    const auto& l1d = machine.hierarchy().l1d().stats();
    const auto& l1i = machine.hierarchy().l1i().stats();
    const auto& l2 = machine.hierarchy().l2().stats();
    EXPECT_EQ(l1d.hits + l1d.misses, count(sim::Event::kL1dAccesses));
    EXPECT_EQ(l1d.misses, count(sim::Event::kL1dMisses));
    EXPECT_EQ(l1i.hits + l1i.misses, count(sim::Event::kL1iAccesses));
    EXPECT_EQ(l1i.misses, count(sim::Event::kL1iMisses));
    // Fetch-path L2 refills are booked by the PMU under kL1iMisses.
    EXPECT_EQ(l2.hits + l2.misses,
              count(sim::Event::kL2Accesses) + count(sim::Event::kL1iMisses));
    EXPECT_GE(l2.misses, count(sim::Event::kL2Misses));

    // publish_metrics adds exactly the struct counters to the registry.
    auto& reg = obs::MetricsRegistry::instance();
    const auto before = reg.counter("xcheck.cache.l1d.hits").value();
    const auto before_pmu =
        reg.counter("xcheck.pmu.l1d_accesses").value();
    machine.publish_metrics("xcheck");
    EXPECT_EQ(reg.counter("xcheck.cache.l1d.hits").value() - before, l1d.hits);
    EXPECT_EQ(reg.counter("xcheck.pmu.l1d_accesses").value() - before_pmu,
              count(sim::Event::kL1dAccesses));
  }
}

TEST(FuzzGenerator, DeterministicFromSeed) {
  for (std::uint64_t seed : {1ull, 99ull, 0xDEADBEEFull}) {
    Rng a(seed), b(seed);
    const auto pa = fuzz::generate_program(a);
    const auto pb = fuzz::generate_program(b);
    EXPECT_EQ(pa.source(), pb.source()) << "seed " << seed;
    EXPECT_EQ(pa.uses_smc, pb.uses_smc);
    EXPECT_EQ(pa.uses_rdcycle, pb.uses_rdcycle);
  }
  Rng a(1), b(2);
  EXPECT_NE(fuzz::generate_program(a).source(),
            fuzz::generate_program(b).source());
}

TEST(FuzzGenerator, ProgramsExecuteSubstantialWork) {
  // Guards against the generator degenerating into programs that fault on
  // the first instruction (which would make the oracle vacuously pass).
  int halted = 0;
  std::uint64_t total_retired = 0;
  const auto configs = fuzz::standard_configs(/*timing_blind=*/true);
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(derive_seed(777, seed));
    fuzz::GeneratorOptions opt;
    opt.allow_rdcycle = false;
    opt.allow_smc = (seed % 3) == 0;
    const auto program = fuzz::generate_program(rng, opt);
    const auto asm_src = program.source() + casm::runtime_library();
    casm::AssembleOptions aopt;
    aopt.name = "fuzz";
    aopt.link_base = 0x10000;
    const auto binary = casm::assemble(asm_src, aopt);
    const auto result =
        fuzz::run_under_config(binary, configs[0], {}, program.uses_smc);
    total_retired += result.retired;
    if (result.stop == sim::StopReason::kHalted && result.exit_code == 0) {
      ++halted;
    }
    EXPECT_TRUE(result.invariant_failure.empty()) << result.invariant_failure;
  }
  // All generated programs are termination-safe by construction.
  EXPECT_EQ(halted, 20);
  EXPECT_GT(total_retired / 20, 100u) << "programs are trivially short";
}

TEST(FuzzGenerator, RespectsFeatureGates) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(derive_seed(31337, seed));
    fuzz::GeneratorOptions opt;
    opt.allow_rdcycle = false;
    opt.allow_smc = false;
    const auto program = fuzz::generate_program(rng, opt);
    EXPECT_FALSE(program.uses_smc);
    EXPECT_FALSE(program.uses_rdcycle);
    const auto src = program.source();
    EXPECT_EQ(src.find("rdcycle"), std::string::npos);
  }
}

TEST(FuzzDiffer, SmallRandomSweepFindsNoDivergence) {
  // A quick in-test sweep: a real fuzzing session is the crs_fuzz tool;
  // this keeps a smoke version inside ctest.
  fuzz::RunLimits limits;
  limits.max_instructions = 200'000;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(derive_seed(4242, seed));
    fuzz::GeneratorOptions opt;
    opt.allow_rdcycle = (seed % 2) == 1;
    opt.allow_smc = (seed % 3) == 0;
    const auto program = fuzz::generate_program(rng, opt);
    const auto div = fuzz::check_program(program, limits);
    EXPECT_FALSE(div.has_value())
        << "seed " << seed << ": " << (div ? div->detail : "");
  }
}

TEST(FuzzDiffer, ParallelBatchMatchesSerial) {
  const auto div = fuzz::check_parallel_batch(/*base_seed=*/5, /*count=*/4,
                                              /*threads=*/3, {});
  EXPECT_FALSE(div.has_value()) << (div ? div->detail : "");
}

TEST(FuzzDiffer, AttackLeakIdenticalAcrossExactConfigs) {
  Rng rng(17);
  const auto div = fuzz::check_attack_leak(rng);
  EXPECT_FALSE(div.has_value()) << (div ? div->detail : "");
}

TEST(FuzzMinimize, ShrinksToOracleCore) {
  // Synthetic oracle: "fails" while both marker lines survive. The
  // minimizer must strip everything else and keep exactly the core.
  fuzz::FuzzProgram prog;
  for (int i = 0; i < 40; ++i) {
    prog.lines.push_back("  nop ; filler " + std::to_string(i));
  }
  prog.lines.insert(prog.lines.begin() + 13, "MARK_A");
  prog.lines.insert(prog.lines.begin() + 29, "MARK_B");

  fuzz::MinimizeStats stats;
  const auto reduced = fuzz::minimize(
      prog,
      [](const fuzz::FuzzProgram& p) {
        const auto has = [&](const char* m) {
          return std::find(p.lines.begin(), p.lines.end(), m) != p.lines.end();
        };
        return has("MARK_A") && has("MARK_B");
      },
      /*max_oracle_calls=*/2000, &stats);

  EXPECT_EQ(reduced.lines.size(), 2u);
  EXPECT_EQ(reduced.lines[0], "MARK_A");
  EXPECT_EQ(reduced.lines[1], "MARK_B");
  EXPECT_GT(stats.lines_removed, 0);
  EXPECT_GT(stats.oracle_calls, 0);
}

TEST(FuzzMinimize, RespectsOracleBudget) {
  fuzz::FuzzProgram prog;
  for (int i = 0; i < 64; ++i) prog.lines.push_back("line");
  fuzz::MinimizeStats stats;
  fuzz::minimize(
      prog, [](const fuzz::FuzzProgram&) { return true; },
      /*max_oracle_calls=*/10, &stats);
  EXPECT_LE(stats.oracle_calls, 10 + 1);
}

}  // namespace
