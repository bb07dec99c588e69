#include "sim/block_cache.hpp"

#include <algorithm>

namespace crs::sim {

using isa::OpClass;
using isa::Opcode;

namespace {

/// Classes executed inline by the block engine's body handlers.
bool body_class(OpClass cls) {
  switch (cls) {
    case OpClass::kNop:
    case OpClass::kAlu:
    case OpClass::kLoad:
    case OpClass::kStore:
    case OpClass::kPush:
    case OpClass::kPop:
    case OpClass::kRdCycle:
      return true;
    default:
      return false;
  }
}

}  // namespace

BlockCache::BlockCache(const Memory& memory, std::uint32_t mul_latency,
                       std::uint32_t div_latency)
    : memory_(memory),
      mul_latency_(mul_latency),
      div_latency_(div_latency),
      pages_(memory.page_count()) {}

TranslatedBlock* BlockCache::acquire_miss(std::uint64_t pc) {
  const std::uint64_t page = pc / Memory::kPageSize;
  if (page >= pages_.size()) return nullptr;
  auto& entry = pages_[page];
  if (entry == nullptr) {
    entry = std::make_unique<PageBlocks>();
    entry->slots.resize(kSlotsPerPage);
  }
  const std::uint16_t slot = slot_of(pc);
  TranslatedBlock* block = entry->slots[slot].get();
  if (block != nullptr) {  // stale: acquire's hit path checked its guards
    ++stats_.retranslations;
    if (!translate_into(*block, pc, slot)) {
      entry->slots[slot].reset();
      return nullptr;
    }
    return block;
  }
  auto fresh_block = std::make_unique<TranslatedBlock>();
  if (!translate_into(*fresh_block, pc, slot)) return nullptr;
  ++stats_.translations;
  entry->resident.push_back(slot);
  entry->slots[slot] = std::move(fresh_block);
  return entry->slots[slot].get();
}

bool BlockCache::translate_into(TranslatedBlock& block, std::uint64_t pc,
                                std::uint16_t slot) {
  if (!memory_.check(pc, isa::kInstructionSize, AccessKind::kExecute)) {
    return false;
  }
  block.entry_pc = pc;
  block.body.clear();
  block.dispatch_ready = false;  // handler slots die with the old body
  block.has_tail = false;
  const std::uint64_t entry_page = pc / Memory::kPageSize;
  block.first_page = entry_page;
  block.last_page = entry_page;
  block.guards[0] = {entry_page, memory_.page_version(entry_page)};
  block.guard_count = 1;

  std::uint64_t cur = pc;
  while (true) {
    const std::uint64_t cur_page = cur / Memory::kPageSize;
    if (cur_page != block.last_page) {
      // Crossing into the next page: guard it too, or stop at the cap.
      // Instructions are 8-byte aligned and sized, so they never straddle
      // pages themselves.
      if (block.guard_count == kMaxBlockPages) break;
      if (!memory_.check(cur, isa::kInstructionSize, AccessKind::kExecute)) {
        break;
      }
      block.guards[block.guard_count++] = {cur_page,
                                           memory_.page_version(cur_page)};
      block.last_page = cur_page;
    }
    const DecodedSlot decoded = decode_slot(memory_, cur);
    if (decoded.state != DecodedSlot::kValid) break;
    // Control flow terminates a block but executes inside it, via the
    // interpreter's own exec_* helpers.
    if (isa::is_control_flow(decoded.instr.op)) {
      block.tail = decoded;
      block.has_tail = true;
      break;
    }
    if (!body_class(decoded.cls)) break;  // serialising: step() handles it
    if (block.body.size() >= kMaxBodyOps) break;
    MicroOp op;
    op.op = decoded.instr.op;
    op.rd = decoded.instr.rd;
    op.rs1 = decoded.instr.rs1;
    op.rs2 = decoded.instr.rs2;
    op.imm = static_cast<std::int64_t>(decoded.instr.imm);
    if (op.op == Opcode::kMul || op.op == Opcode::kMulImm) {
      op.latency = mul_latency_;
    } else if (op.op == Opcode::kDivu || op.op == Opcode::kRemu) {
      op.latency = div_latency_;
    }
    block.body.push_back(op);
    cur += isa::kInstructionSize;
  }

  if (block.guard_count == kMaxBlockPages) {
    // Register the straddler with its second page so invalidate() of that
    // page kills this block too.
    auto& sibling = pages_[block.last_page];
    if (sibling == nullptr) {
      sibling = std::make_unique<PageBlocks>();
      sibling->slots.resize(kSlotsPerPage);
    }
    const std::pair<std::uint64_t, std::uint16_t> ref{entry_page, slot};
    if (std::find(sibling->incoming.begin(), sibling->incoming.end(), ref) ==
        sibling->incoming.end()) {
      sibling->incoming.push_back(ref);
    }
  }
  return true;
}

void BlockCache::invalidate(std::uint64_t addr) {
  const std::uint64_t page = addr / Memory::kPageSize;
  if (page >= pages_.size() || pages_[page] == nullptr) return;
  PageBlocks& entry = *pages_[page];
  for (const std::uint16_t slot : entry.resident) entry.slots[slot].reset();
  entry.resident.clear();
  for (const auto& [from_page, from_slot] : entry.incoming) {
    if (from_page < pages_.size() && pages_[from_page] != nullptr) {
      pages_[from_page]->slots[from_slot].reset();
    }
  }
  entry.incoming.clear();
  ++stats_.invalidations;
}

}  // namespace crs::sim
