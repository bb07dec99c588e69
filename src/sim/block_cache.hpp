// Translated-superblock cache for the threaded-code execution engine.
//
// A block is a straight-line run of decoded instructions starting at an
// 8-byte-aligned pc: zero or more "body" ops (ALU, load/store, push/pop,
// nop, rdcycle) followed by at most one control-flow "tail" (branch, jump,
// call, return). Translation stops at serialising instructions (halt,
// mfence, clflush, syscall), at illegal bytes, after crossing one page
// boundary, and at a body-length cap — execution of those falls back to the
// interpreter's `Cpu::step()`.
//
// Coherence reuses the decode cache's page-version scheme wholesale: each
// block carries a guard list of (page, version) pairs for every page its
// bytes were decoded from, validated with an integer compare per guard on
// every acquire. Since `Memory` bumps a page's version on every write and
// permission change, all invalidation sources — SMC stores, execve
// overlays, mprotect, fence-pass rewrites, and snapshot restore (which
// bumps, never rolls back) — kill stale blocks with no new hooks. `clflush`
// of a code line additionally drops the page's blocks eagerly (including
// blocks that *straddle into* the page from a neighbour), mirroring
// `DecodeCache::invalidate`.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "isa/isa.hpp"
#include "sim/decode_cache.hpp"
#include "sim/memory.hpp"

namespace crs::sim {

/// One straight-line instruction in dispatch-ready threaded-code form: the
/// architectural fields plus the immediate pre-sign-extended and the result
/// latency (1 / mul / div) pre-selected, so the executor's handlers do no
/// per-op classification at all.
struct MicroOp {
  isa::Opcode op = isa::Opcode::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::uint32_t latency = 1;
  std::int64_t imm = 0;
  /// Direct-threading slot: the executor's computed-goto handler address for
  /// `op`, filled lazily on the block's first execution (the label addresses
  /// are local to the dispatch function). nullptr until then and in the
  /// switch-dispatch build, which ignores it.
  const void* handler = nullptr;
};

struct BlockGuard {
  std::uint64_t page = 0;
  std::uint32_t version = 0;  ///< 0 never matches (Memory starts at 1)
};

struct TranslatedBlock {
  std::uint64_t entry_pc = 0;
  /// Inclusive page span of the block's code bytes; body stores landing in
  /// this span mean self-modifying code and force a mid-block bail-out.
  std::uint64_t first_page = 0;
  std::uint64_t last_page = 0;
  std::uint32_t guard_count = 0;
  BlockGuard guards[2];
  /// True once every body op's `handler` has been resolved by the executor;
  /// cleared on (re)translation since the body was rebuilt.
  bool dispatch_ready = false;
  bool has_tail = false;
  /// Control-flow terminator. Valid iff has_tail. The executor resolves a
  /// conditional branch (by Cpu::plan_cond_branch) or a direct jump itself
  /// and calls the interpreter's exec_* helpers for the rest, and for a
  /// branch that runs a wrong-path episode or honours a fence hint.
  DecodedSlot tail{};
  std::vector<MicroOp> body;

  bool empty() const { return body.empty() && !has_tail; }
};

struct BlockCacheStats {
  std::uint64_t hits = 0;            ///< acquires served by a fresh block
  std::uint64_t translations = 0;    ///< first-time block builds
  std::uint64_t retranslations = 0;  ///< guard-mismatch rebuilds
  std::uint64_t invalidations = 0;   ///< clflush-driven page drops
  std::uint64_t smc_bailouts = 0;    ///< in-block stores into own code span
};

class BlockCache {
 public:
  /// Longest body per block. Also bounds how stale a block's tail can be:
  /// nothing inside a block writes memory without the SMC span check.
  static constexpr std::size_t kMaxBodyOps = 256;
  /// Blocks may cross at most one page boundary (two guards).
  static constexpr std::uint32_t kMaxBlockPages = 2;

  BlockCache(const Memory& memory, std::uint32_t mul_latency,
             std::uint32_t div_latency);

  /// Block starting at the 8-byte-aligned `pc`. Validates guards and
  /// retranslates in place when any guarded page's version moved. Returns
  /// nullptr iff the page does not grant execute permission or `pc` is out
  /// of range — the caller falls back to `Cpu::step()`, which raises the
  /// DEP fault. The returned block may be `empty()` (entry instruction is
  /// serialising or illegal); cached so repeat visits stay cheap.
  /// The hit path is inline: the executor's chain looks up the successor
  /// of every block it leaves.
  TranslatedBlock* acquire(std::uint64_t pc) {
    const std::uint64_t page = pc / Memory::kPageSize;
    if (page < pages_.size() && pages_[page] != nullptr) {
      TranslatedBlock* block = pages_[page]->slots[slot_of(pc)].get();
      if (block != nullptr && fresh(*block)) {
        ++stats_.hits;
        return block;
      }
    }
    return acquire_miss(pc);
  }

  /// Drops every block resident in the page containing `addr`, plus blocks
  /// that straddle into it from the previous page (clflush of a code line).
  void invalidate(std::uint64_t addr);

  const BlockCacheStats& stats() const { return stats_; }
  void note_smc_bailout() { ++stats_.smc_bailouts; }

 private:
  struct PageBlocks {
    /// One slot per 8-byte-aligned entry pc in the page, lazily filled.
    std::vector<std::unique_ptr<TranslatedBlock>> slots;
    /// Occupied slot indices, so invalidate need not walk all 512 slots.
    std::vector<std::uint16_t> resident;
    /// (page, slot) of blocks on *other* pages whose bytes extend into this
    /// one; invalidating this page must kill them too. Conservative: stale
    /// entries only ever drop a block early, never keep one alive.
    std::vector<std::pair<std::uint64_t, std::uint16_t>> incoming;
  };
  static constexpr std::size_t kSlotsPerPage =
      Memory::kPageSize / isa::kInstructionSize;

  static std::uint16_t slot_of(std::uint64_t pc) {
    return static_cast<std::uint16_t>((pc & (Memory::kPageSize - 1)) /
                                      isa::kInstructionSize);
  }

  /// acquire's slow path: no page entry or block yet, or a stale block.
  TranslatedBlock* acquire_miss(std::uint64_t pc);

  /// True when every guarded page still has the version `block` was
  /// translated from.
  bool fresh(const TranslatedBlock& block) const {
    bool ok = true;
    for (std::uint32_t g = 0; g < block.guard_count; ++g) {
      ok &= memory_.page_version(block.guards[g].page) ==
            block.guards[g].version;
    }
    return ok;
  }

  /// (Re)builds `block` from the current memory image. False iff the entry
  /// page denies execute.
  bool translate_into(TranslatedBlock& block, std::uint64_t pc,
                      std::uint16_t slot);

  const Memory& memory_;
  std::uint32_t mul_latency_;
  std::uint32_t div_latency_;
  std::vector<std::unique_ptr<PageBlocks>> pages_;  // by page number, lazy
  BlockCacheStats stats_;
};

}  // namespace crs::sim
