// Observability core: runtime tracing toggle and the logical-lane mechanism
// that makes traces deterministic under the thread pool.
//
// Design contract (see docs/OBSERVABILITY.md):
//  * Metrics are compiled into every build and always live.
//  * Trace emission is gated at runtime by `tracing_enabled()`
//    (default off) so the default build pays only a relaxed atomic load on
//    the rare paths that emit, and nothing at all on hot paths.
//  * A "lane" is a logical thread id: the work-item index inside a
//    parallel_map / for_each_index region, not the OS thread id. Two runs
//    with different CRS_THREADS values produce the same (cycle, lane)
//    sequence, which is what makes merged traces byte-identical.
#pragma once

#include <cstdint>

namespace crs::obs {

/// Runtime switch for trace emission. Metrics counters are always live;
/// traces are opt-in per process.
bool tracing_enabled();
void set_tracing_enabled(bool on);

/// Logical lane of the calling thread (0 outside any parallel region).
std::uint32_t current_lane();
void set_current_lane(std::uint32_t lane);

/// RAII lane setter. The thread pool wraps every work item in one of these
/// so events emitted by the item are tagged with the item index regardless
/// of which OS thread ran it.
class LaneScope {
 public:
  explicit LaneScope(std::uint32_t lane);
  ~LaneScope();
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  std::uint32_t saved_;
};

/// Allocates a contiguous block of `count` lanes for one parallel region.
/// Blocks are handed out in the (deterministic) program order in which
/// regions are dispatched, starting at 1 — lane 0 is reserved for serial
/// main-thread emission — so a (cycle, lane) pair is produced by at most
/// one work item and the merge order cannot depend on the thread count.
std::uint32_t allocate_lane_block(std::uint32_t count);

/// Rewinds the lane allocator (tests compare traces of repeated runs in one
/// process; call together with TraceSink::clear()).
void reset_lane_allocator();

/// Lanes at or above this base are reserved for post-hoc summary emission
/// (e.g. one lane per campaign attempt). Keeping them disjoint from in-run
/// lanes guarantees a (cycle, lane) pair is produced by at most one buffer,
/// which the deterministic merge relies on.
inline constexpr std::uint32_t kSummaryLaneBase = 1u << 30;

}  // namespace crs::obs
