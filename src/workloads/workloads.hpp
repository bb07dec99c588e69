// MiBench-like host workloads, written in the simulated ISA.
//
// The paper evaluates with MiBench programs as the exploited host (§III-A:
// basicmath ("Math"), bitcount, SHA, ...) plus "other benign applications
// like browsers, text editors" in the benign profiling pool. Each workload
// here:
//   - carries the vulnerable input path of paper Algorithm 1: `read_input`
//     copies argv[1] into a fixed-size stack buffer with the *attacker-
//     controlled* length (memcpy-style, so payload bytes may be zero),
//   - exposes `read_input` / `read_input_body` labels for frame recon,
//   - runs a computation with a distinctive micro-architectural signature
//     (that distinctiveness is what the HID learns; tests assert the
//     signatures differ),
//   - stores a final checksum at the `result` symbol so tests can verify
//     the computation against a C++ mirror of the same algorithm.
//
// An optional stack-canary build (paper §I discusses Stack Canaries as a
// ROP defense) places the canary between the buffer and the saved return
// address; the overflow then aborts instead of hijacking control.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/program.hpp"

namespace crs::workloads {

struct WorkloadInfo {
  std::string name;
  std::string description;
};

/// The eight MiBench-like hosts: basicmath, bitcount, sha, qsort, crc32,
/// stringsearch, dijkstra, susan.
const std::vector<WorkloadInfo>& host_catalog();

/// Additional benign pool ("browsers, text editors, ..."): pointer_chase,
/// wordcount, matmul. Structurally identical scaffold, different bodies.
const std::vector<WorkloadInfo>& benign_pool_catalog();

/// True when `name` is in either catalogue.
bool is_known_workload(const std::string& name);

struct WorkloadOptions {
  /// Work amount; per-workload unit (loop iterations, blocks, passes...).
  std::uint64_t scale = 50;
  /// Protect read_input with a stack canary (defense evaluation).
  bool canary = false;
  /// Non-empty: plant this secret at the `host_secret` symbol. The host
  /// never touches it (paper §II-A: "the secret as an array that is stored
  /// in the host application; the host never accesses the secret").
  std::string secret;
  std::uint64_t link_base = 0x10000;

  auto operator<=>(const WorkloadOptions&) const = default;
};

/// Assembly source (without the runtime library).
std::string generate_workload_source(const std::string& name,
                                     const WorkloadOptions& options);

/// Assembled program (runtime library linked in).
sim::Program build_workload(const std::string& name,
                            const WorkloadOptions& options = {});

/// C++ mirrors of the workload computations, used by tests to verify the
/// simulated runs end-to-end (same LCG, same algorithm, same checksum).
namespace mirror {
std::uint64_t basicmath(std::uint64_t scale);
std::uint64_t bitcount(std::uint64_t scale);
std::uint64_t crc32(std::uint64_t scale);
std::uint64_t qsort_checksum(std::uint64_t n);
/// SHA-1 state XOR-fold after `scale` blocks of LCG data.
std::uint64_t sha(std::uint64_t scale);
}  // namespace mirror

}  // namespace crs::workloads
