// Copy-on-write machine forking: the replication primitive.
//
// Every repeated attempt runs on a machine forked from a frozen baseline,
// so the fork engine hangs on one promise — a fork is indistinguishable
// from a freshly constructed Machine(config), and rolling it back leaves
// nothing behind. These tests pin that promise on raw machine runs (fork ≡
// fresh, restore ≡ fresh fork, sibling isolation, a resident footprint that
// stays flat across run+restore cycles) and under fork churn (every dropped
// fork gives its shared-image reference back).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "sim/kernel.hpp"
#include "sim/snapshot.hpp"
#include "workloads/workloads.hpp"

namespace crs {
namespace {

/// Everything observable about one raw kernel run of a real workload.
std::string machine_fingerprint(sim::Machine& machine) {
  sim::Kernel kernel(machine);
  workloads::WorkloadOptions opt;
  opt.scale = 4;
  kernel.register_binary("/bin/fork",
                         workloads::build_workload("basicmath", opt));
  kernel.start_with_strings("/bin/fork", {"benign"});
  const sim::StopReason stop = kernel.run(200'000'000);
  std::ostringstream os;
  os << static_cast<int>(stop) << '|'
     << machine.memory().read_u64(kernel.resolved_symbol("/bin/fork", "result"))
     << '|' << machine.cpu().retired() << '|' << machine.cpu().cycle() << '|'
     << machine.pmu().count(sim::Event::kL1dMisses) << '|'
     << machine.pmu().count(sim::Event::kBranchMispredicts);
  return os.str();
}

// --- raw machines: fork ≡ Machine(config), restore ≡ fresh fork -----------

TEST(MachineFork, ForkedRunMatchesFreshRunBitForBit) {
  const sim::MachineConfig config;
  std::string fresh;
  {
    sim::Machine machine(config);
    fresh = machine_fingerprint(machine);
  }
  const auto base = sim::shared_baseline(config);
  for (int i = 0; i < 2; ++i) {
    sim::Machine fork(*base);
    EXPECT_TRUE(fork.memory().is_cow());
    EXPECT_EQ(fork.memory().resident_bytes(), 0u);  // nothing dirtied yet
    EXPECT_EQ(machine_fingerprint(fork), fresh) << "fork " << i;
    // The run dirtied only the pages it touched, not the address space.
    EXPECT_GT(fork.memory().promoted_pages(), 0u);
    EXPECT_LT(fork.memory().resident_bytes(), config.memory_size / 2);
  }
}

TEST(MachineFork, SnapshotRestoreWorksOnAFork) {
  const sim::MachineConfig config;
  sim::Machine fork(*sim::shared_baseline(config));
  sim::MachineSnapshot snap = fork.snapshot();
  // Fork of a pristine baseline: the frozen image stores no pages.
  EXPECT_EQ(snap.baseline()->image()->stored_page_count(), 0u);

  const std::string first = machine_fingerprint(fork);
  fork.restore(snap);
  EXPECT_GT(snap.last_restored_pages(), 0u);
  EXPECT_EQ(machine_fingerprint(fork), first);  // restored ≡ fresh fork
}

TEST(MachineFork, SiblingForksDivergeIndependently) {
  const sim::MachineConfig config;
  const auto base = sim::shared_baseline(config);
  sim::Machine a(*base);
  sim::Machine b(*base);
  // Self-modifying divergence: write different bytes into the same page of
  // each sibling; the shared image and the other fork must not see them.
  a.memory().write_u64(0x1000, 0x11);
  b.memory().write_u64(0x1000, 0x22);
  EXPECT_EQ(a.memory().read_u64(0x1000), 0x11ull);
  EXPECT_EQ(b.memory().read_u64(0x1000), 0x22ull);
  sim::Machine c(*base);
  EXPECT_EQ(c.memory().read_u64(0x1000), 0u);
}

/// Private frames never leak across attempts: every cycle dirties the same
/// pages, which the first cycle already promoted and each restore rewrites
/// in place.
TEST(MachineFork, ResidentBytesStableAcrossRunRestoreCycles) {
  const auto base = sim::shared_baseline(sim::MachineConfig{});
  sim::Machine fork(*base);
  sim::MachineSnapshot snap(base);
  sim::Kernel kernel(fork);
  workloads::WorkloadOptions opt;
  opt.scale = 4;
  kernel.register_binary("/bin/w", workloads::build_workload("basicmath", opt));

  std::uint64_t after_first = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    kernel.reset_for_attempt(7);
    kernel.start_with_strings("/bin/w", {"benign"});
    ASSERT_EQ(kernel.run(200'000'000), sim::StopReason::kHalted);
    fork.restore(snap);
    if (cycle == 0) after_first = fork.memory().resident_bytes();
  }
  EXPECT_GT(after_first, 0u);
  EXPECT_EQ(fork.memory().resident_bytes(), after_first);
}

// --- fork churn -----------------------------------------------------------

TEST(MachineFork, ImageRefcountsReturnToIdleUnderChurn) {
  sim::MachineConfig configs[3];
  configs[1].cpu.decode_cache = false;
  configs[2].memory_size = 8 * 1024 * 1024;
  std::shared_ptr<const sim::MachineBaseline> bases[3];
  long idle[3];
  for (int c = 0; c < 3; ++c) {
    bases[c] = sim::shared_baseline(configs[c]);
    // Steady-state references: the registry + our handle here. A live fork
    // adds one; a dropped fork must give it back.
    idle[c] = bases[c]->image_use_count();
  }
  for (int cycle = 0; cycle < 3000; ++cycle) {
    const int c = cycle % 3;
    sim::Machine fork(*sim::shared_baseline(configs[c]));
    // Dirty a page so the fork allocates (and must release) a private frame.
    fork.memory().write_u64(64, static_cast<std::uint64_t>(cycle));
    ASSERT_EQ(bases[c]->image_use_count(), idle[c] + 1);
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(bases[c]->image_use_count(), idle[c]) << "config " << c;
  }
}

}  // namespace
}  // namespace crs
