#include "sim/kernel.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/error.hpp"

namespace crs::sim {

namespace {
constexpr std::uint64_t kMaxWriteLen = 1 << 20;
constexpr std::uint64_t kMaxPathLen = 256;
constexpr std::uint64_t kRedzoneBytes = 16;

// Position-dependent redzone fill: a constant-byte overflow (memset-style)
// still tears it, unlike a single magic byte.
std::uint8_t redzone_byte(std::uint64_t addr, std::uint64_t i) {
  return static_cast<std::uint8_t>(0xA5u ^ (addr >> 4) ^ (i * 0x3Bu));
}
}  // namespace

Machine::Machine(const MachineConfig& config)
    : config_(config),
      memory_(config.memory_size),
      hierarchy_(config.hierarchy),
      predictor_(config.predictor),
      pmu_(),
      cpu_(memory_, hierarchy_, predictor_, pmu_, config.cpu) {}

Kernel::Kernel(Machine& machine, const KernelConfig& config)
    : machine_(machine), config_(config), rng_(config.seed) {
  next_stack_top_ = machine_.memory().size();
}

void Kernel::register_binary(const std::string& path, Program program) {
  registry_[path] = std::move(program);
}

bool Kernel::has_binary(const std::string& path) const {
  return registry_.count(path) != 0;
}

LoadInfo Kernel::map_image(const std::string& path, const Program& program) {
  Memory& mem = machine_.memory();
  CRS_ENSURE(!program.segments.empty(),
             "program '" + program.name + "' has no segments");

  std::uint64_t delta = 0;
  const auto fits = [&](std::uint64_t d) {
    for (const auto& seg : program.segments) {
      const std::uint64_t lo = seg.addr + d;
      const std::uint64_t hi = lo + seg.bytes.size();
      if (hi > next_stack_top_) return false;  // would run into stacks
      for (const auto& li : load_order_) {
        if (lo < li.hi && li.lo < hi) return false;  // overlap
      }
    }
    return true;
  };

  if (config_.aslr) {
    bool placed = false;
    for (int attempt = 0; attempt < 64 && !placed; ++attempt) {
      const std::uint64_t pages = config_.aslr_range / Memory::kPageSize;
      delta = rng_.next_below(pages) * Memory::kPageSize;
      placed = fits(delta);
    }
    CRS_ENSURE(placed, "ASLR could not place image '" + program.name + "'");
    ++hstats_.images_randomized;
    seed_drawn_ = true;
  } else {
    CRS_ENSURE(fits(0), "image '" + program.name + "' does not fit");
  }

  LoadInfo info;
  info.path = path;
  info.base_delta = delta;
  info.entry = program.entry + delta;
  info.lo = ~0ull;
  info.hi = 0;

  for (std::size_t si = 0; si < program.segments.size(); ++si) {
    const Segment& seg = program.segments[si];
    std::vector<std::uint8_t> bytes = seg.bytes;
    for (const Relocation& rel : program.relocations) {
      if (rel.segment != si) continue;
      if (rel.kind == RelocKind::kImm32) {
        CRS_ENSURE(rel.offset + 4 <= bytes.size(), "relocation out of range");
        std::uint32_t v = 0;
        for (int i = 3; i >= 0; --i) v = (v << 8) | bytes[rel.offset + static_cast<std::uint64_t>(i)];
        v += static_cast<std::uint32_t>(delta);
        for (int i = 0; i < 4; ++i)
          bytes[rel.offset + static_cast<std::uint64_t>(i)] =
              static_cast<std::uint8_t>(v >> (8 * i));
      } else {
        CRS_ENSURE(rel.offset + 8 <= bytes.size(), "relocation out of range");
        std::uint64_t v = 0;
        for (int i = 7; i >= 0; --i) v = (v << 8) | bytes[rel.offset + static_cast<std::uint64_t>(i)];
        v += delta;
        for (int i = 0; i < 8; ++i)
          bytes[rel.offset + static_cast<std::uint64_t>(i)] =
              static_cast<std::uint8_t>(v >> (8 * i));
      }
    }
    const std::uint64_t lo = seg.addr + delta;
    mem.write_bytes(lo, bytes);
    mem.set_permissions(lo, std::max<std::uint64_t>(bytes.size(), 1), seg.perm);
    info.lo = std::min(info.lo, lo);
    info.hi = std::max(info.hi, lo + bytes.size());
  }

  // Publish a fresh stack canary if the image declares one, and watch the
  // word: the run depends on the seed only if something reads it.
  const auto canary_sym = program.symbols.find("__canary");
  if (canary_sym != program.symbols.end()) {
    mem.write_u64(canary_sym->second + delta, rng_.next_u64());
    mem.watch_word(canary_sym->second + delta);
    ++hstats_.canaries_planted;
  }

  loaded_[path] = info;
  load_order_.push_back(info);
  if (load_hook_) {
    load_hook_(machine_, info, load_order_.size() == 1);
  }
  return info;
}

void Kernel::start(const std::string& path,
                   std::span<const std::vector<std::uint8_t>> args) {
  start_impl(path, args, nullptr);
}

void Kernel::start_probe(const std::string& victim_path,
                         const std::string& probe_path,
                         std::span<const std::vector<std::uint8_t>> args) {
  start_impl(victim_path, args, &probe_path);
}

void Kernel::start_impl(const std::string& path,
                        std::span<const std::vector<std::uint8_t>> args,
                        const std::string* probe_path) {
  const auto it = registry_.find(path);
  CRS_ENSURE(it != registry_.end(), "start: unknown binary '" + path + "'");

  output_.clear();
  exit_code_ = 0;
  execve_count_ = 0;
  saved_contexts_.clear();
  loaded_.clear();
  load_order_.clear();
  injected_stack_tops_.clear();
  heap_bump_ = config_.heap_base;
  heap_chunks_.clear();
  // If a prior run stopped mid-injection (e.g. instruction limit) the host's
  // data pages are still kPermNone; restore them before the old mapping is
  // forgotten, or the new (ASLR-shifted) image may not re-cover those pages.
  ward_unlock_host();
  next_stack_top_ = machine_.memory().size();
  if (config_.aslr_stack) {
    // Stack ASLR: the whole carve shifts down by a page-aligned delta. This
    // is the FIRST draw of a run, before map_image's image delta and canary
    // draws, so probe and exploit passes replay the same layout.
    const std::uint64_t pages = config_.aslr_stack_range / Memory::kPageSize;
    next_stack_top_ -= rng_.next_below(pages) * Memory::kPageSize;
    ++hstats_.stacks_randomized;
    seed_drawn_ = true;
  }

  // Carve the main stack from the top of memory (RW, not executable: DEP).
  Memory& mem = machine_.memory();
  const std::uint64_t stack_top = next_stack_top_;
  const std::uint64_t stack_lo = stack_top - config_.stack_size;
  mem.set_permissions(stack_lo, config_.stack_size, kPermRW);
  next_stack_top_ = stack_lo - Memory::kPageSize;  // guard gap

  const LoadInfo info = map_image(path, it->second);

  // Marshal argv below the stack top.
  std::uint64_t cursor = stack_top;
  std::vector<std::uint64_t> addrs;
  std::vector<std::uint64_t> lens;
  for (const auto& arg : args) {
    cursor -= arg.size();
    cursor &= ~7ull;
    mem.write_bytes(cursor, arg);
    addrs.push_back(cursor);
    lens.push_back(arg.size());
  }
  cursor -= 8 * args.size();
  const std::uint64_t argv_ptrs = cursor;
  for (std::size_t i = 0; i < addrs.size(); ++i) mem.write_u64(argv_ptrs + 8 * i, addrs[i]);
  cursor -= 8 * args.size();
  const std::uint64_t arg_lens = cursor;
  for (std::size_t i = 0; i < lens.size(); ++i) mem.write_u64(arg_lens + 8 * i, lens[i]);
  cursor &= ~15ull;

  Cpu& cpu = machine_.cpu();
  cpu.set_syscall_handler([this](Cpu& c) { return handle_syscall(c); });
  cpu.reset(info.entry, cursor);
  cpu.set_reg(1, args.size());
  cpu.set_reg(2, argv_ptrs);
  cpu.set_reg(3, arg_lens);

  if (probe_path) {
    // Every victim draw is done; mapping the probe afterwards cannot shift
    // the layout under study. The probe runs on the victim's stack with the
    // victim's argv — a hijacked entry, not a separate process.
    const auto pit = registry_.find(*probe_path);
    CRS_ENSURE(pit != registry_.end(),
               "start_probe: unknown binary '" + *probe_path + "'");
    const LoadInfo pinfo = map_image(*probe_path, pit->second);
    cpu.set_pc(pinfo.entry);
  }
}

void Kernel::start_with_strings(const std::string& path,
                                const std::vector<std::string>& args) {
  std::vector<std::vector<std::uint8_t>> raw;
  raw.reserve(args.size());
  for (const auto& a : args) raw.emplace_back(a.begin(), a.end());
  start(path, raw);
}

StopReason Kernel::run(std::uint64_t max_instructions) {
  return machine_.cpu().run(max_instructions);
}

StopReason Kernel::run_until_cycle(std::uint64_t cycle_target,
                                   std::uint64_t max_instructions) {
  return machine_.cpu().run_until_cycle(cycle_target, max_instructions);
}

std::string Kernel::output_string() const {
  return std::string(output_.begin(), output_.end());
}

const LoadInfo& Kernel::main_image() const {
  CRS_ENSURE(!load_order_.empty(), "no image loaded");
  return load_order_.front();
}

std::uint64_t Kernel::resolved_symbol(const std::string& path,
                                      const std::string& label) const {
  const auto li = loaded_.find(path);
  CRS_ENSURE(li != loaded_.end(), "image '" + path + "' is not mapped");
  const auto pi = registry_.find(path);
  CRS_ENSURE(pi != registry_.end(), "image '" + path + "' is not registered");
  return pi->second.symbol(label) + li->second.base_delta;
}

void Kernel::switch_hygiene(Cpu& cpu) {
  // Kernel-entry scrubbing (mitigation): every trap is a protection-domain
  // boundary, so predictor state and (optionally) L1 contents trained on
  // one side are dropped before the other runs again.
  if (config_.flush_predictors_on_switch) {
    ++kstats_.predictor_flushes;
    kstats_.predictor_entries_flushed += cpu.predictor().flush_all();
  }
  if (config_.flush_l1_on_switch) {
    ++kstats_.l1_flushes;
    kstats_.l1_lines_flushed += machine_.hierarchy().flush_l1();
  }
}

void Kernel::ward_lock_host() {
  // Hide the host's non-executable pages (its data, including the secret)
  // while the injected image runs. Code pages stay mapped — the injected
  // chain legitimately returns through host gadgets.
  const LoadInfo& host = load_order_.front();
  const auto prog = registry_.find(host.path);
  CRS_ENSURE(prog != registry_.end(), "ward: host program not registered");
  Memory& mem = machine_.memory();
  ++kstats_.ward_lockouts;
  for (const Segment& seg : prog->second.segments) {
    if ((seg.perm & kPermExec) != 0 || seg.bytes.empty()) continue;
    const std::uint64_t lo = seg.addr + host.base_delta;
    ward_locks_.push_back(WardLock{lo, seg.bytes.size(), seg.perm});
    mem.set_permissions(lo, seg.bytes.size(), kPermNone);
    kstats_.ward_pages_locked +=
        (lo % Memory::kPageSize + seg.bytes.size() + Memory::kPageSize - 1) /
        Memory::kPageSize;
  }
}

void Kernel::ward_unlock_host() {
  Memory& mem = machine_.memory();
  for (const WardLock& lock : ward_locks_) {
    mem.set_permissions(lock.addr, lock.len, lock.perm);
  }
  ward_locks_.clear();
}

SyscallOutcome Kernel::handle_syscall(Cpu& cpu) {
  switch_hygiene(cpu);
  const std::uint64_t number = cpu.reg(0);
  switch (number) {
    case kSysExit: {
      if (!saved_contexts_.empty()) {
        // The injected binary finished: resume the host behind the syscall
        // gadget, exactly as the ROP chain laid it out.
        const SavedContext ctx = saved_contexts_.back();
        saved_contexts_.pop_back();
        for (int r = 0; r < isa::kNumRegisters; ++r) cpu.set_reg(r, ctx.regs[r]);
        cpu.set_pc(ctx.pc);
        if (saved_contexts_.empty() && !ward_locks_.empty()) {
          ward_unlock_host();  // host is back in control: remap its data
        }
        return SyscallOutcome::kContinue;
      }
      exit_code_ = static_cast<std::int64_t>(cpu.reg(1));
      obs::trace_instant("kernel.exit", cpu.cycle(),
                         static_cast<double>(exit_code_));
      return SyscallOutcome::kHalt;
    }
    case kSysWrite: {
      const std::uint64_t addr = cpu.reg(2);
      const std::uint64_t len = cpu.reg(3);
      if (len > kMaxWriteLen ||
          !machine_.memory().check(addr, std::max<std::uint64_t>(len, 1),
                                   AccessKind::kRead)) {
        cpu.set_reg(0, static_cast<std::uint64_t>(-1));
        return SyscallOutcome::kContinue;
      }
      const auto bytes = machine_.memory().read_bytes(addr, len);
      output_.insert(output_.end(), bytes.begin(), bytes.end());
      cpu.set_reg(0, len);
      return SyscallOutcome::kContinue;
    }
    case kSysExecve:
      return do_execve(cpu);
    case kSysGetRandom: {
      const std::uint64_t addr = cpu.reg(1);
      const std::uint64_t len = cpu.reg(2);
      if (!machine_.memory().check(addr, std::max<std::uint64_t>(len, 1),
                                   AccessKind::kWrite)) {
        cpu.set_reg(0, static_cast<std::uint64_t>(-1));
        return SyscallOutcome::kContinue;
      }
      for (std::uint64_t i = 0; i < len; ++i) {
        machine_.memory().write_u8(addr + i,
                                   static_cast<std::uint8_t>(rng_.next_u64()));
      }
      seed_drawn_ = true;
      cpu.set_reg(0, len);
      return SyscallOutcome::kContinue;
    }
    case kSysAbort:
      ++hstats_.canary_aborts;
      obs::trace_instant("kernel.abort", cpu.cycle());
      cpu.raise_fault(FaultKind::kStackCanary, cpu.sp());
      return SyscallOutcome::kHalt;
    case kSysHeapAlloc:
      return do_heap_alloc(cpu);
    case kSysHeapFree:
      return do_heap_free(cpu);
    default:
      cpu.set_reg(0, static_cast<std::uint64_t>(-1));  // ENOSYS
      return SyscallOutcome::kContinue;
  }
}

SyscallOutcome Kernel::do_heap_alloc(Cpu& cpu) {
  std::uint64_t size = std::max<std::uint64_t>(cpu.reg(1), 1);
  size = (size + 15) & ~15ull;  // 16-byte granules
  // Free-list reuse first (first fit); the chunk keeps its original carve.
  for (HeapChunk& chunk : heap_chunks_) {
    if (!chunk.live && chunk.size >= size) {
      chunk.live = true;
      ++hstats_.heap_allocs;
      if (config_.heap_guard) paint_redzones(chunk);
      cpu.set_reg(0, chunk.addr);
      return SyscallOutcome::kContinue;
    }
  }
  const std::uint64_t guard = config_.heap_guard ? kRedzoneBytes : 0;
  const std::uint64_t need = size + 2 * guard;
  const std::uint64_t heap_end = config_.heap_base + config_.heap_size;
  CRS_ENSURE(heap_end <= machine_.memory().size(),
             "heap region exceeds machine memory");
  if (heap_bump_ + need > heap_end) {
    cpu.set_reg(0, 0);  // out of heap
    return SyscallOutcome::kContinue;
  }
  const std::uint64_t lo = heap_bump_;
  heap_bump_ += need;
  machine_.memory().set_permissions(lo, need, kPermRW);
  HeapChunk chunk{lo + guard, size, true};
  if (config_.heap_guard) paint_redzones(chunk);
  heap_chunks_.push_back(chunk);
  ++hstats_.heap_allocs;
  cpu.set_reg(0, chunk.addr);
  return SyscallOutcome::kContinue;
}

SyscallOutcome Kernel::do_heap_free(Cpu& cpu) {
  const std::uint64_t addr = cpu.reg(1);
  for (HeapChunk& chunk : heap_chunks_) {
    if (chunk.addr != addr || !chunk.live) continue;
    if (config_.heap_guard && !check_redzones(chunk)) {
      ++hstats_.redzone_violations;
      obs::trace_instant("kernel.redzone", cpu.cycle());
      cpu.raise_fault(FaultKind::kHeapRedzone, chunk.addr);
      return SyscallOutcome::kHalt;
    }
    chunk.live = false;
    ++hstats_.heap_frees;
    cpu.set_reg(0, 0);
    return SyscallOutcome::kContinue;
  }
  cpu.set_reg(0, static_cast<std::uint64_t>(-1));  // unknown or double free
  return SyscallOutcome::kContinue;
}

void Kernel::paint_redzones(const HeapChunk& chunk) {
  Memory& mem = machine_.memory();
  for (std::uint64_t i = 0; i < kRedzoneBytes; ++i) {
    mem.write_u8(chunk.addr - kRedzoneBytes + i, redzone_byte(chunk.addr, i));
    mem.write_u8(chunk.addr + chunk.size + i,
                 redzone_byte(chunk.addr, kRedzoneBytes + i));
  }
}

bool Kernel::check_redzones(const HeapChunk& chunk) {
  Memory& mem = machine_.memory();
  bool ok = true;
  hstats_.redzone_bytes_checked += 2 * kRedzoneBytes;
  for (std::uint64_t i = 0; i < kRedzoneBytes; ++i) {
    ok &= mem.read_u8(chunk.addr - kRedzoneBytes + i) ==
          redzone_byte(chunk.addr, i);
    ok &= mem.read_u8(chunk.addr + chunk.size + i) ==
          redzone_byte(chunk.addr, kRedzoneBytes + i);
  }
  return ok;
}

SyscallOutcome Kernel::do_execve(Cpu& cpu) {
  // Read the NUL-terminated path.
  const std::uint64_t path_addr = cpu.reg(1);
  std::string path;
  for (std::uint64_t i = 0; i < kMaxPathLen; ++i) {
    if (!machine_.memory().check(path_addr + i, 1, AccessKind::kRead)) break;
    const char c = static_cast<char>(machine_.memory().read_u8(path_addr + i));
    if (c == '\0') break;
    path.push_back(c);
  }

  const auto it = registry_.find(path);
  if (it == registry_.end() ||
      static_cast<int>(saved_contexts_.size()) >= config_.max_execve_depth) {
    cpu.set_reg(0, static_cast<std::uint64_t>(-1));
    return SyscallOutcome::kContinue;
  }

  LoadInfo info;
  const auto already = loaded_.find(path);
  if (already == loaded_.end()) {
    // First spawn: carve a stack for the injected image, then map it.
    const std::uint64_t stack_top = next_stack_top_;
    const std::uint64_t stack_lo = stack_top - config_.stack_size;
    machine_.memory().set_permissions(stack_lo, config_.stack_size, kPermRW);
    next_stack_top_ = stack_lo - Memory::kPageSize;
    info = map_image(path, it->second);
    injected_stack_tops_[path] = stack_top;
  } else {
    // Re-spawn (or self-execve of an already-mapped image): rewrite the
    // image so its data segments are pristine, and make sure an injected
    // stack exists — the main binary was started on the primary stack.
    if (injected_stack_tops_.find(path) == injected_stack_tops_.end()) {
      const std::uint64_t stack_top = next_stack_top_;
      const std::uint64_t stack_lo = stack_top - config_.stack_size;
      machine_.memory().set_permissions(stack_lo, config_.stack_size,
                                        kPermRW);
      next_stack_top_ = stack_lo - Memory::kPageSize;
      injected_stack_tops_[path] = stack_top;
    }
    info = already->second;
    Memory& mem = machine_.memory();
    const Program& program = it->second;
    for (std::size_t si = 0; si < program.segments.size(); ++si) {
      const Segment& seg = program.segments[si];
      std::vector<std::uint8_t> bytes = seg.bytes;
      for (const Relocation& rel : program.relocations) {
        if (rel.segment != si) continue;
        const int width = rel.kind == RelocKind::kImm32 ? 4 : 8;
        std::uint64_t v = 0;
        for (int i = width - 1; i >= 0; --i)
          v = (v << 8) | bytes[rel.offset + static_cast<std::uint64_t>(i)];
        v += info.base_delta;
        for (int i = 0; i < width; ++i)
          bytes[rel.offset + static_cast<std::uint64_t>(i)] =
              static_cast<std::uint8_t>(v >> (8 * i));
      }
      mem.write_bytes(seg.addr + info.base_delta, bytes);
    }
    // The rewrite restored pristine segment bytes, clobbering any in-place
    // edits (fence hints) the load hook made — re-fire it.
    if (load_hook_) load_hook_(machine_, info, false);
  }

  SavedContext ctx;
  for (int r = 0; r < isa::kNumRegisters; ++r) ctx.regs[r] = cpu.reg(r);
  ctx.pc = cpu.pc();  // already past the syscall: the gadget's ret
  saved_contexts_.push_back(ctx);
  if (config_.ward_split && saved_contexts_.size() == 1) {
    ward_lock_host();
  }
  ++execve_count_;
  // Depth as the value: nested spawns render as stacked markers.
  obs::trace_instant("kernel.execve", cpu.cycle(),
                     static_cast<double>(saved_contexts_.size()));

  for (int r = 0; r < isa::kNumRegisters; ++r) cpu.set_reg(r, 0);
  cpu.set_sp(injected_stack_tops_.at(path) - 64);
  cpu.set_pc(info.entry);
  return SyscallOutcome::kContinue;
}

void Machine::publish_metrics(const std::string& prefix) const {
  auto& reg = obs::MetricsRegistry::instance();
  const PmuSnapshot& snap = pmu_.snapshot();
  for (std::size_t e = 0; e < kEventCount; ++e) {
    reg.counter(prefix + ".pmu." +
                std::string(event_name(static_cast<Event>(e))))
        .add(snap[e]);
  }
  hierarchy_.publish_metrics(prefix + ".cache");
  predictor_.publish_metrics(prefix + ".predictor");
  reg.counter(prefix + ".cpu.spec_episodes").add(cpu_.spec_episodes());
  reg.counter(prefix + ".cpu.cycles").add(cpu_.cycle());
  reg.counter(prefix + ".cpu.retired").add(cpu_.retired());
}

}  // namespace crs::sim
