// Minimal kernel: process loading, argv marshalling, and syscalls.
//
// Models just enough OS for the paper's threat model:
//  - A loader that maps program segments with W^X permissions (DEP) and,
//    optionally, at an ASLR-randomised base using the image's relocations.
//  - argv passed on the stack; the *byte length* of each argument is
//    attacker-controlled, which is what the host's vulnerable
//    `read_input` copies without bounds checking (paper Algorithm 1).
//  - SYS_EXECVE with spawn-in-process semantics: the named binary is mapped
//    into the SAME address space and runs on the same core (shared caches,
//    predictor and PMU); when it exits the host continues behind the
//    syscall site. This matches the paper's setting — the attack executes
//    "under the umbrella of the host", the HID attributes all events to the
//    whitelisted host process, and the host completes its work so the IPC
//    overhead comparison of Table I is meaningful.
//  - A random per-process stack canary value published at the `__canary`
//    symbol (when the program defines one) and SYS_ABORT, which the
//    canary-checking epilogue uses to kill the process on corruption.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/cpu.hpp"
#include "sim/program.hpp"
#include "support/rng.hpp"

namespace crs::sim {

/// Syscall numbers (in r0; args in r1..r3; result in r0).
enum Syscall : std::uint64_t {
  kSysExit = 0,       ///< r1 = exit code
  kSysWrite = 1,      ///< r1 = fd (ignored), r2 = addr, r3 = len
  kSysExecve = 2,     ///< r1 = address of NUL-terminated path string
  kSysGetRandom = 3,  ///< r1 = addr, r2 = len
  kSysAbort = 4,      ///< canary-check failure: fault + kill
  kSysHeapAlloc = 5,  ///< r1 = size → r0 = chunk address (0 on failure)
  kSysHeapFree = 6,   ///< r1 = chunk address → r0 = 0 (-1 on unknown chunk)
};

struct MachineConfig {
  std::uint64_t memory_size = 16 * 1024 * 1024;
  HierarchyConfig hierarchy;
  PredictorConfig predictor;
  CpuConfig cpu;

  auto operator<=>(const MachineConfig&) const = default;
};

class MachineSnapshot;
class MachineBaseline;

/// Bundles the hardware: memory, caches, predictor, PMU and core.
class Machine {
 public:
  /// A clean machine: zeroed memory (every page aliases the zero page until
  /// its first write, so construction costs O(metadata)), cold caches and
  /// predictor, a reset core. The one way to a clean machine.
  explicit Machine(const MachineConfig& config = {});

  /// Copy-on-write fork: replicates `base` (a frozen machine from
  /// Machine::freeze()) in O(metadata) — memory pages alias the baseline's
  /// shared image until first write, micro-architectural state is copied.
  /// By the freeze/fork contract the fork is indistinguishable from the
  /// machine `base` was frozen from. Defined in sim/snapshot.cpp.
  explicit Machine(const MachineBaseline& base);

  /// Freezes this machine's full state into an immutable, refcounted
  /// replication baseline any number of forks (across threads) can share.
  /// Defined in sim/snapshot.cpp; include sim/snapshot.hpp for the
  /// MachineBaseline definition.
  std::shared_ptr<const MachineBaseline> freeze() const;

  /// Freezes this machine (see freeze()) as a rollback point for restore().
  /// Defined in sim/snapshot.cpp; include sim/snapshot.hpp for the
  /// MachineSnapshot definition.
  MachineSnapshot snapshot() const;

  /// Rolls this machine back to `snap` (taken from this machine, or made
  /// from the baseline it was forked from) using dirty-page tracking: only
  /// pages whose content version moved since are copied back from the
  /// baseline image, and their versions are bumped — never rolled back — so
  /// stale decode-cache slots cannot survive. After a restore the machine
  /// is indistinguishable from one freshly forked from the baseline.
  void restore(MachineSnapshot& snap);

  Memory& memory() { return memory_; }
  const Memory& memory() const { return memory_; }
  MemoryHierarchy& hierarchy() { return hierarchy_; }
  BranchPredictor& predictor() { return predictor_; }
  Pmu& pmu() { return pmu_; }
  Cpu& cpu() { return cpu_; }
  const Cpu& cpu() const { return cpu_; }
  const MachineConfig& config() const { return config_; }

  const MemoryHierarchy& hierarchy() const { return hierarchy_; }
  const BranchPredictor& predictor() const { return predictor_; }
  const Pmu& pmu() const { return pmu_; }

  /// Folds this machine's cumulative observability state — every PMU event,
  /// per-level cache stats, predictor traffic and speculation episodes —
  /// into the process-wide MetricsRegistry under `<prefix>.*`. Call exactly
  /// once per machine, after its run completes (counters are cumulative).
  void publish_metrics(const std::string& prefix) const;

 private:
  MachineConfig config_;
  Memory memory_;
  MemoryHierarchy hierarchy_;
  BranchPredictor predictor_;
  Pmu pmu_;
  Cpu cpu_;
};

struct KernelConfig {
  /// Stack region size for the initial process and for each execve'd image.
  std::uint64_t stack_size = 256 * 1024;
  /// Randomise image bases (page-aligned) within [0, aslr_range).
  bool aslr = false;
  std::uint64_t aslr_range = 4 * 1024 * 1024;
  /// Randomise the main/injected stack region too: the whole stack carve
  /// shifts down by a page-aligned delta in [0, aslr_stack_range). Kept
  /// separate from `aslr` so existing image-only ASLR scenarios replay the
  /// exact RNG stream they always had.
  bool aslr_stack = false;
  std::uint64_t aslr_stack_range = 1 * 1024 * 1024;
  /// True when loading draws the layout from the kernel seed (image or
  /// stack ASLR), so every run under this config depends on its seed.
  bool randomizes_layout() const { return aslr || aslr_stack; }
  /// Guarded heap: SYS_HEAP_ALLOC carves pattern-filled redzones around
  /// every chunk and SYS_HEAP_FREE verifies them, faulting the process on a
  /// torn redzone (heap-overflow catch). Off: plain bump/free-list heap.
  bool heap_guard = false;
  /// Heap region placement — above the 4 MiB ASLR image window, below the
  /// stacks carved from the top of memory.
  std::uint64_t heap_base = 8 * 1024 * 1024;
  std::uint64_t heap_size = 1 * 1024 * 1024;
  std::uint64_t seed = 0xC0FFEE;
  /// Maximum nested execve depth (the CR-Spectre chain needs 1).
  int max_execve_depth = 2;

  // --- context-switch hygiene mitigations (src/mitigate) -----------------
  /// Flush PHT/BTB/RSB on every kernel entry (syscall/execve), so predictor
  /// state trained by one protection domain cannot steer another.
  bool flush_predictors_on_switch = false;
  /// Invalidate both L1 caches on kernel entry (Ward-style L1 flush); the
  /// L2 stays warm, as on hardware that only scrubs the closest level.
  bool flush_l1_on_switch = false;
  /// Ward split: while an execve'd (injected) image runs, the host's
  /// non-executable pages (its data, including the secret) are unmapped.
  /// Architectural accesses fault; transient ones squash without a fill —
  /// the cross-image leak CR-Spectre needs is cut at the page table.
  bool ward_split = false;
};

/// Result of mapping one binary.
struct LoadInfo {
  std::string path;
  std::uint64_t base_delta = 0;  ///< load base − link base
  std::uint64_t entry = 0;       ///< resolved entry address
  std::uint64_t lo = 0;          ///< lowest mapped address
  std::uint64_t hi = 0;          ///< highest mapped address (exclusive)
};

/// What the kernel-side mitigations did. Like CpuMitigationStats these are
/// plain unconditional counters behind off-by-default flags, so the defense
/// matrix reads ground truth in any observability build flavour.
struct KernelMitigationStats {
  std::uint64_t predictor_flushes = 0;  ///< kernel entries that scrubbed
  std::uint64_t predictor_entries_flushed = 0;  ///< trained entries dropped
  std::uint64_t l1_flushes = 0;
  std::uint64_t l1_lines_flushed = 0;
  std::uint64_t ward_lockouts = 0;     ///< execves that unmapped host data
  std::uint64_t ward_pages_locked = 0;
};

/// What the hardening layer (src/harden) did. Same discipline as
/// KernelMitigationStats: plain unconditional counters behind off-by-default
/// config flags; harden::summarize masks them by the active HardenConfig.
struct KernelHardenStats {
  std::uint64_t images_randomized = 0;  ///< map_image calls that drew a base
  std::uint64_t stacks_randomized = 0;  ///< start() stack-base draws
  std::uint64_t canaries_planted = 0;   ///< __canary publications
  std::uint64_t canary_aborts = 0;      ///< SYS_ABORT canary kills
  std::uint64_t heap_allocs = 0;
  std::uint64_t heap_frees = 0;
  std::uint64_t redzone_bytes_checked = 0;
  std::uint64_t redzone_violations = 0;  ///< torn redzones caught on free
};

class Kernel {
 public:
  /// Observes every image (re)load. Runs after the bytes and permissions
  /// are in place — where the mitigation layer plants fence hints and arms
  /// cache partitioning. `first_image` is true only for the binary mapped
  /// by start(); re-execve image rewrites re-fire the hook with false so
  /// in-place code edits survive the rewrite.
  using LoadHook = std::function<void(Machine&, const LoadInfo&, bool)>;

  Kernel(Machine& machine, const KernelConfig& config = {});

  /// Registers a binary under a filesystem-like path for execve lookup.
  void register_binary(const std::string& path, Program program);
  bool has_binary(const std::string& path) const;

  /// Installs the load hook (replacing any previous one). Images already
  /// mapped are not revisited; install before start().
  void set_load_hook(LoadHook hook) { load_hook_ = std::move(hook); }

  /// Loads `path`, marshals argv, installs the syscall handler and resets
  /// the CPU at the program entry. Args are raw byte strings; their
  /// addresses land in an argv array and their lengths in a parallel array
  /// (r1 = argc, r2 = argv pointers, r3 = arg lengths).
  void start(const std::string& path,
             std::span<const std::vector<std::uint8_t>> args = {});

  /// Convenience: args as strings.
  void start_with_strings(const std::string& path,
                          const std::vector<std::string>& args);

  /// Loads `victim_path` exactly as start(victim_path, args) would — the
  /// RNG draw order (stack delta, image delta, canary value) is identical,
  /// so the victim's randomized layout matches the run the attacker is
  /// probing — then maps `probe_path` on top and enters IT instead, on the
  /// victim's stack. Models a speculative-probing attacker (BlindSide-style)
  /// who hijacked the hardened process's entry and scans its layout through
  /// the transient channel before committing to an injection.
  void start_probe(const std::string& victim_path,
                   const std::string& probe_path,
                   std::span<const std::vector<std::uint8_t>> args = {});

  StopReason run(std::uint64_t max_instructions);
  StopReason run_until_cycle(std::uint64_t cycle_target,
                             std::uint64_t max_instructions);

  /// Re-arms this kernel for a fresh attempt on a machine that was just
  /// rolled back via Machine::restore(): the RNG restarts exactly where a
  /// new Kernel(machine, {.seed = seed}) would, the mitigation counters
  /// zero, and stale ward locks are forgotten (the restore already
  /// reinstated the permissions they recorded). The binary registry and
  /// the load hook survive — registering and arming once per session is
  /// what makes a session's later attempts cheap. Also clears
  /// seed_dependent() and the memory's canary watch. Follow with start().
  void reset_for_attempt(std::uint64_t seed);

  /// Byte stream written via SYS_WRITE since start().
  const std::vector<std::uint8_t>& output() const { return output_; }
  std::string output_string() const;

  std::int64_t exit_code() const { return exit_code_; }

  /// Number of successful SYS_EXECVE spawns since start().
  int execve_count() const { return execve_count_; }

  /// True while an execve'd (injected) image is running — ground truth for
  /// labelling profile windows; never visible to the detector.
  bool in_injected_binary() const { return !saved_contexts_.empty(); }

  /// Load info of the binary started via start().
  const LoadInfo& main_image() const;

  /// Resolved (post-ASLR) address of `label` in the image loaded from
  /// `path` (must already be mapped).
  std::uint64_t resolved_symbol(const std::string& path,
                                const std::string& label) const;

  Machine& machine() { return machine_; }
  const KernelConfig& config() const { return config_; }

  /// Activity of the armed kernel-side mitigations (all zero by default).
  const KernelMitigationStats& mitigation_stats() const { return kstats_; }

  /// Activity of the hardening layer since the last reset/attempt.
  const KernelHardenStats& harden_stats() const { return hstats_; }

  /// True once the run since the last reset_for_attempt depended on the
  /// kernel seed: it drew an ASLR placement (image or stack) or
  /// SYS_GETRANDOM bytes, or it read a canary word the loader planted (any
  /// read through a sim::Memory accessor, wrong-path loads and kernel-side
  /// copies included). Planting alone does not count: a run that never
  /// reads the word executes the same under every seed.
  bool seed_dependent() const {
    return seed_drawn_ || machine_.memory().watch_fired();
  }

 private:
  struct SavedContext {
    std::uint64_t regs[isa::kNumRegisters];
    std::uint64_t pc;
  };

  /// One page range hidden by the Ward split, with the permission to
  /// restore when the injected image exits.
  struct WardLock {
    std::uint64_t addr;
    std::uint64_t len;
    Perm perm;
  };

  /// One guarded-heap chunk. `addr` is the user pointer (past the leading
  /// redzone when heap_guard is on); dead chunks form the free list.
  struct HeapChunk {
    std::uint64_t addr = 0;
    std::uint64_t size = 0;
    bool live = false;
  };

  LoadInfo map_image(const std::string& path, const Program& program);
  void start_impl(const std::string& path,
                  std::span<const std::vector<std::uint8_t>> args,
                  const std::string* probe_path);
  SyscallOutcome handle_syscall(Cpu& cpu);
  SyscallOutcome do_execve(Cpu& cpu);
  SyscallOutcome do_heap_alloc(Cpu& cpu);
  SyscallOutcome do_heap_free(Cpu& cpu);
  void paint_redzones(const HeapChunk& chunk);
  bool check_redzones(const HeapChunk& chunk);
  void switch_hygiene(Cpu& cpu);
  void ward_lock_host();
  void ward_unlock_host();

  Machine& machine_;
  KernelConfig config_;
  Rng rng_;

  std::map<std::string, Program> registry_;
  std::map<std::string, LoadInfo> loaded_;  // path → where it landed
  std::vector<LoadInfo> load_order_;

  std::uint64_t next_stack_top_ = 0;  // stacks carved from the top of memory
  std::map<std::string, std::uint64_t> injected_stack_tops_;
  std::vector<SavedContext> saved_contexts_;
  std::vector<std::uint8_t> output_;
  std::int64_t exit_code_ = 0;
  int execve_count_ = 0;

  std::uint64_t heap_bump_ = 0;  // next fresh carve inside the heap region
  std::vector<HeapChunk> heap_chunks_;

  LoadHook load_hook_;
  bool seed_drawn_ = false;  // see seed_dependent()
  KernelMitigationStats kstats_;
  KernelHardenStats hstats_;
  std::vector<WardLock> ward_locks_;
};

}  // namespace crs::sim
