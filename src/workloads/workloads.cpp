#include "workloads/workloads.hpp"

#include <algorithm>

#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "support/error.hpp"

namespace crs::workloads {

namespace {

std::string num(std::uint64_t v) { return std::to_string(v); }

// Shared LCG (all workloads): s' = (s * 1103515245 + 12345) & 0x7fffffff.
// Emits: clobbers the named state register and one scratch register.
std::string lcg_step(const std::string& state, const std::string& scratch) {
  return "    muli " + state + ", " + state + ", 1103515245\n" +
         "    addi " + state + ", " + state + ", 12345\n" +
         "    movi " + scratch + ", 0x7fffffff\n" +
         "    and " + state + ", " + state + ", " + scratch + "\n";
}

constexpr std::uint64_t kLcgMul = 1103515245;
constexpr std::uint64_t kLcgAdd = 12345;
constexpr std::uint64_t kLcgMask = 0x7fffffff;

std::uint64_t lcg_next(std::uint64_t s) {
  return (s * kLcgMul + kLcgAdd) & kLcgMask;
}

// ---------------------------------------------------------------------------
// The common host scaffold: paper Algorithm 1.
// ---------------------------------------------------------------------------

std::string scaffold(bool canary) {
  std::string s;
  s += "; host scaffold: vulnerable input path (Algorithm 1)\n";
  s += "_start:\n";
  s += "    movi r6, 2\n";
  s += "    cmpltu r6, r1, r6\n";  // argc < 2?
  s += "    bnez r6, no_input\n";
  s += "    load r4, [r2+8]\n";    // argv[1] pointer
  s += "    load r5, [r3+8]\n";    // argv[1] length (attacker-controlled)
  s += "    call read_input\n";
  s += "no_input:\n";
  s += "    call work\n";
  s += "    movi r1, 0\n";
  s += "    call exit_\n";
  s += "\n";
  if (canary) {
    // char buffer[104]; canary word between buffer and saved return.
    s += "read_input:\n";
    s += "    addi sp, sp, -112\n";
    s += "    movi r6, __canary\n";
    s += "    load r6, [r6]\n";
    s += "    store [sp+104], r6\n";
    s += "read_input_body:\n";
    s += "    mov r1, sp\n";
    s += "    mov r2, r4\n";
    s += "    mov r3, r5\n";
    s += "    call memcpy\n";       // the overflow happens here
    s += "    load r4, [sp+104]\n";
    s += "    call canary_check\n"; // aborts on corruption
    s += "    addi sp, sp, 112\n";
    s += "    ret\n";
  } else {
    s += "read_input:\n";
    s += "    addi sp, sp, -104\n"; // char buffer[104]
    s += "read_input_body:\n";
    s += "    mov r1, sp\n";
    s += "    mov r2, r4\n";
    s += "    mov r3, r5\n";
    s += "    call memcpy\n";       // no bounds check: Algorithm 1 line 3
    s += "    addi sp, sp, 104\n";
    s += "    ret\n";
  }
  s += "\n";
  return s;
}

// ---------------------------------------------------------------------------
// Workload bodies. Each defines `work:` plus its own data, and stores a
// checksum at `result` (defined centrally). Bodies may use r4..r14 freely.
// ---------------------------------------------------------------------------

// basicmath ("Math"): Newton integer square roots + polynomial evaluation.
// Division-heavy with a data-dependent inner loop.
std::string body_basicmath(std::uint64_t scale) {
  std::string s;
  s += "work:\n";
  s += "    movi r4, 12345\n";  // lcg
  s += "    movi r5, 0\n";      // checksum
  s += "    movi r13, " + num(scale) + "\n";
  s += "bm_loop:\n";
  s += lcg_step("r4", "r6");
  s += "    mov r6, r4\n";      // x = v
  s += "    shri r7, r6, 1\n";
  s += "    addi r7, r7, 1\n";  // y = v/2 + 1
  s += "bm_isqrt:\n";
  s += "    cmplt r8, r7, r6\n";
  s += "    beqz r8, bm_isqrt_done\n";
  s += "    mov r6, r7\n";
  s += "    divu r9, r4, r6\n";
  s += "    add r7, r6, r9\n";
  s += "    shri r7, r7, 1\n";
  s += "    jmp bm_isqrt\n";
  s += "bm_isqrt_done:\n";
  s += "    add r5, r5, r6\n";
  s += "    muli r9, r4, 3\n";
  s += "    addi r9, r9, 7\n";
  s += "    mul r9, r9, r4\n";
  s += "    addi r9, r9, 11\n";
  s += "    xor r5, r5, r9\n";
  s += "    addi r13, r13, -1\n";
  s += "    bnez r13, bm_loop\n";
  s += "    movi r6, result\n";
  s += "    store [r6], r5\n";
  s += "    ret\n";
  return s;
}

// bitcount: MiBench's "nifty parallel count" (branchless SWAR popcount) —
// pure predictable ALU, the highest-IPC workload (paper Table I).
std::string body_bitcount(std::uint64_t scale) {
  std::string s;
  s += "work:\n";
  s += "    movi r4, 98765\n";
  s += "    movi r5, 0\n";  // total bit count
  s += "    movi r13, " + num(scale) + "\n";
  s += "bc_loop:\n";
  s += lcg_step("r4", "r6");
  s += "    mov r6, r4\n";
  // v = v - ((v >> 1) & 0x55555555)
  s += "    shri r7, r6, 1\n";
  s += "    andi r7, r7, 0x55555555\n";
  s += "    sub r6, r6, r7\n";
  // v = (v & 0x33333333) + ((v >> 2) & 0x33333333)
  s += "    movi r8, 0x33333333\n";
  s += "    and r7, r6, r8\n";
  s += "    shri r6, r6, 2\n";
  s += "    and r6, r6, r8\n";
  s += "    add r6, r6, r7\n";
  // v = (v + (v >> 4)) & 0x0f0f0f0f
  s += "    shri r7, r6, 4\n";
  s += "    add r6, r6, r7\n";
  s += "    andi r6, r6, 0x0f0f0f0f\n";
  // count = (v * 0x01010101) >> 24, low byte
  s += "    muli r6, r6, 0x01010101\n";
  s += "    shri r6, r6, 24\n";
  s += "    andi r6, r6, 0xff\n";
  s += "    add r5, r5, r6\n";
  s += "    addi r13, r13, -1\n";
  s += "    bnez r13, bc_loop\n";
  s += "    movi r6, result\n";
  s += "    store [r6], r5\n";
  s += "    ret\n";
  return s;
}

// sha: genuine SHA-1 compression over `scale` blocks of LCG-generated
// words. Heavy on the W[80] message schedule: loads/stores dominate.
std::string body_sha(std::uint64_t scale) {
  std::string s;
  s += "work:\n";
  // r9 = 0xffffffff mask, kept live across the whole routine.
  s += "    movi r9, 1\n";
  s += "    shli r9, r9, 32\n";
  s += "    addi r9, r9, -1\n";
  s += "    movi r14, " + num(scale) + "\n";  // blocks
  s += "sha_block:\n";
  // W[0..15] = LCG words.
  s += "    movi r13, 0\n";
  s += "sha_fill:\n";
  s += "    movi r10, sha_lcg\n";
  s += "    load r11, [r10]\n";
  s += "    muli r11, r11, 1103515245\n";
  s += "    addi r11, r11, 12345\n";
  s += "    and r11, r11, r9\n";  // full 32-bit state here
  s += "    store [r10], r11\n";
  s += "    movi r10, w_arr\n";
  s += "    shli r12, r13, 3\n";
  s += "    add r10, r10, r12\n";
  s += "    store [r10], r11\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r12, 16\n";
  s += "    cmplt r12, r13, r12\n";
  s += "    bnez r12, sha_fill\n";
  // W[16..79] = rotl1(W[t-3] ^ W[t-8] ^ W[t-14] ^ W[t-16]).
  s += "sha_extend:\n";
  s += "    movi r10, w_arr\n";
  s += "    shli r12, r13, 3\n";
  s += "    add r10, r10, r12\n";
  s += "    load r11, [r10-24]\n";
  s += "    load r12, [r10-64]\n";
  s += "    xor r11, r11, r12\n";
  s += "    load r12, [r10-112]\n";
  s += "    xor r11, r11, r12\n";
  s += "    load r12, [r10-128]\n";
  s += "    xor r11, r11, r12\n";
  s += "    shli r12, r11, 1\n";
  s += "    shri r11, r11, 31\n";
  s += "    or r11, r11, r12\n";
  s += "    and r11, r11, r9\n";
  s += "    store [r10], r11\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r12, 80\n";
  s += "    cmplt r12, r13, r12\n";
  s += "    bnez r12, sha_extend\n";
  // Load state into a..e = r4..r8.
  s += "    movi r10, sha_h\n";
  s += "    load r4, [r10]\n";
  s += "    load r5, [r10+8]\n";
  s += "    load r6, [r10+16]\n";
  s += "    load r7, [r10+24]\n";
  s += "    load r8, [r10+32]\n";
  s += "    movi r13, 0\n";
  s += "sha_round:\n";
  s += "    movi r12, 20\n";
  s += "    cmplt r12, r13, r12\n";
  s += "    beqz r12, sha_f2\n";
  s += "    and r10, r5, r6\n";   // f = (b & c) | (~b & d)
  s += "    xor r11, r5, r9\n";
  s += "    and r11, r11, r7\n";
  s += "    or r10, r10, r11\n";
  s += "    movi r11, 0x5A827999\n";
  s += "    jmp sha_cont\n";
  s += "sha_f2:\n";
  s += "    movi r12, 40\n";
  s += "    cmplt r12, r13, r12\n";
  s += "    beqz r12, sha_f3\n";
  s += "    xor r10, r5, r6\n";   // f = b ^ c ^ d
  s += "    xor r10, r10, r7\n";
  s += "    movi r11, 0x6ED9EBA1\n";
  s += "    jmp sha_cont\n";
  s += "sha_f3:\n";
  s += "    movi r12, 60\n";
  s += "    cmplt r12, r13, r12\n";
  s += "    beqz r12, sha_f4\n";
  s += "    and r10, r5, r6\n";   // f = majority(b, c, d)
  s += "    and r12, r5, r7\n";
  s += "    or r10, r10, r12\n";
  s += "    and r12, r6, r7\n";
  s += "    or r10, r10, r12\n";
  s += "    movi r11, 0x8F1BBCDC\n";
  s += "    and r11, r11, r9\n";  // strip movi sign extension
  s += "    jmp sha_cont\n";
  s += "sha_f4:\n";
  s += "    xor r10, r5, r6\n";
  s += "    xor r10, r10, r7\n";
  s += "    movi r11, 0xCA62C1D6\n";
  s += "    and r11, r11, r9\n";
  s += "sha_cont:\n";
  s += "    add r10, r10, r11\n";  // f + k
  s += "    add r10, r10, r8\n";   // + e
  s += "    shli r11, r4, 5\n";    // + rotl(a, 5)
  s += "    shri r12, r4, 27\n";
  s += "    or r11, r11, r12\n";
  s += "    and r11, r11, r9\n";
  s += "    add r10, r10, r11\n";
  s += "    movi r11, w_arr\n";    // + W[t]
  s += "    shli r12, r13, 3\n";
  s += "    add r11, r11, r12\n";
  s += "    load r12, [r11]\n";
  s += "    add r10, r10, r12\n";
  s += "    and r10, r10, r9\n";
  s += "    mov r8, r7\n";         // e = d
  s += "    mov r7, r6\n";         // d = c
  s += "    shli r11, r5, 30\n";   // c = rotl(b, 30)
  s += "    shri r12, r5, 2\n";
  s += "    or r11, r11, r12\n";
  s += "    and r6, r11, r9\n";
  s += "    mov r5, r4\n";         // b = a
  s += "    mov r4, r10\n";        // a = temp
  s += "    addi r13, r13, 1\n";
  s += "    movi r12, 80\n";
  s += "    cmplt r12, r13, r12\n";
  s += "    bnez r12, sha_round\n";
  // h[i] = (h[i] + reg) & mask
  s += "    movi r10, sha_h\n";
  const char* regs[] = {"r4", "r5", "r6", "r7", "r8"};
  for (int i = 0; i < 5; ++i) {
    s += "    load r11, [r10+" + num(8 * i) + "]\n";
    s += std::string("    add r11, r11, ") + regs[i] + "\n";
    s += "    and r11, r11, r9\n";
    s += "    store [r10+" + num(8 * i) + "], r11\n";
  }
  s += "    addi r14, r14, -1\n";
  s += "    bnez r14, sha_block\n";
  // result = h0 ^ h1 ^ h2 ^ h3 ^ h4
  s += "    movi r10, sha_h\n";
  s += "    load r4, [r10]\n";
  s += "    load r5, [r10+8]\n";
  s += "    xor r4, r4, r5\n";
  s += "    load r5, [r10+16]\n";
  s += "    xor r4, r4, r5\n";
  s += "    load r5, [r10+24]\n";
  s += "    xor r4, r4, r5\n";
  s += "    load r5, [r10+32]\n";
  s += "    xor r4, r4, r5\n";
  s += "    movi r5, result\n";
  s += "    store [r5], r4\n";
  s += "    ret\n";
  s += ".data\n";
  s += "sha_lcg: .word 7919\n";
  s += "sha_h: .word 0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0\n";
  s += "w_arr: .space 640\n";
  s += ".text\n";
  return s;
}

// qsort: recursive quicksort (Lomuto) over `scale` LCG values.
// Pointer-heavy with data-dependent branches — classic sort profile.
std::string body_qsort(std::uint64_t scale) {
  CRS_ENSURE(scale >= 2 && scale <= 4096, "qsort scale out of range");
  std::string s;
  s += "work:\n";
  s += "    movi r4, 424243\n";
  s += "    movi r13, 0\n";
  s += "qs_fill:\n";
  s += lcg_step("r4", "r5");
  s += "    movi r6, qs_arr\n";
  s += "    shli r7, r13, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    store [r6], r4\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, " + num(scale) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, qs_fill\n";
  s += "    movi r1, 0\n";
  s += "    movi r2, " + num(scale - 1) + "\n";
  s += "    call qsort_rec\n";
  // checksum = sum arr[i] * (i + 1)
  s += "    movi r5, 0\n";
  s += "    movi r13, 0\n";
  s += "qs_sum:\n";
  s += "    movi r6, qs_arr\n";
  s += "    shli r7, r13, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    load r7, [r6]\n";
  s += "    addi r8, r13, 1\n";
  s += "    mul r7, r7, r8\n";
  s += "    add r5, r5, r7\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, " + num(scale) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, qs_sum\n";
  s += "    movi r6, result\n";
  s += "    store [r6], r5\n";
  s += "    ret\n";
  s += "\n";
  s += "; qsort_rec(r1 = lo, r2 = hi), Lomuto partition\n";
  s += "qsort_rec:\n";
  s += "    cmplt r4, r1, r2\n";
  s += "    beqz r4, qs_ret\n";
  s += "    movi r6, qs_arr\n";
  s += "    shli r7, r2, 3\n";
  s += "    add r7, r6, r7\n";
  s += "    load r8, [r7]\n";     // pivot = arr[hi]
  s += "    addi r9, r1, -1\n";   // i = lo - 1
  s += "    mov r10, r1\n";       // j = lo
  s += "qs_part:\n";
  s += "    shli r7, r10, 3\n";
  s += "    add r7, r6, r7\n";
  s += "    load r11, [r7]\n";    // arr[j]
  s += "    cmplt r12, r8, r11\n";
  s += "    bnez r12, qs_noswap\n";
  s += "    addi r9, r9, 1\n";
  s += "    shli r12, r9, 3\n";
  s += "    add r12, r6, r12\n";
  s += "    load r13, [r12]\n";
  s += "    store [r12], r11\n";
  s += "    store [r7], r13\n";
  s += "qs_noswap:\n";
  s += "    addi r10, r10, 1\n";
  s += "    cmplt r12, r10, r2\n";
  s += "    bnez r12, qs_part\n";
  s += "    addi r9, r9, 1\n";    // final pivot swap: arr[i] <-> arr[hi]
  s += "    shli r12, r9, 3\n";
  s += "    add r12, r6, r12\n";
  s += "    load r13, [r12]\n";
  s += "    shli r7, r2, 3\n";
  s += "    add r7, r6, r7\n";
  s += "    load r11, [r7]\n";
  s += "    store [r12], r11\n";
  s += "    store [r7], r13\n";
  s += "    push r1\n";           // recurse left (lo, p-1)
  s += "    push r2\n";
  s += "    push r9\n";
  s += "    addi r2, r9, -1\n";
  s += "    call qsort_rec\n";
  s += "    pop r9\n";
  s += "    pop r2\n";
  s += "    pop r1\n";
  s += "    push r1\n";           // recurse right (p+1, hi)
  s += "    push r2\n";
  s += "    addi r1, r9, 1\n";
  s += "    call qsort_rec\n";
  s += "    pop r2\n";
  s += "    pop r1\n";
  s += "qs_ret:\n";
  s += "    ret\n";
  s += ".data\n";
  s += ".align 64\n";
  s += "qs_arr: .space " + num(scale * 8) + "\n";
  s += ".text\n";
  return s;
}

// crc32: table-driven CRC over an LCG byte stream.
std::string body_crc32(std::uint64_t scale) {
  std::string s;
  s += "work:\n";
  s += "    movi r9, 1\n";  // r9 = 0xffffffff, live throughout
  s += "    shli r9, r9, 32\n";
  s += "    addi r9, r9, -1\n";
  // Build the table.
  s += "    movi r13, 0\n";
  s += "crc_tbl:\n";
  s += "    mov r4, r13\n";
  s += "    movi r12, 8\n";
  s += "crc_tbl_k:\n";
  s += "    andi r5, r4, 1\n";
  s += "    shri r4, r4, 1\n";
  s += "    beqz r5, crc_tbl_nx\n";
  s += "    movi r6, 0xEDB88320\n";
  s += "    and r6, r6, r9\n";
  s += "    xor r4, r4, r6\n";
  s += "crc_tbl_nx:\n";
  s += "    addi r12, r12, -1\n";
  s += "    bnez r12, crc_tbl_k\n";
  s += "    movi r6, crc_table\n";
  s += "    shli r7, r13, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    store [r6], r4\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, 256\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, crc_tbl\n";
  // Stream.
  s += "    mov r8, r9\n";       // crc = 0xffffffff
  s += "    movi r10, 5381\n";   // lcg
  s += "    movi r13, " + num(scale) + "\n";
  s += "crc_loop:\n";
  s += lcg_step("r10", "r11");
  s += "    shri r11, r10, 16\n";
  s += "    andi r11, r11, 0xff\n";  // byte
  s += "    xor r11, r8, r11\n";
  s += "    andi r11, r11, 0xff\n";
  s += "    movi r12, crc_table\n";
  s += "    shli r11, r11, 3\n";
  s += "    add r12, r12, r11\n";
  s += "    load r11, [r12]\n";
  s += "    shri r8, r8, 8\n";
  s += "    xor r8, r8, r11\n";
  s += "    addi r13, r13, -1\n";
  s += "    bnez r13, crc_loop\n";
  s += "    xor r8, r8, r9\n";
  s += "    movi r6, result\n";
  s += "    store [r6], r8\n";
  s += "    ret\n";
  s += ".data\n";
  s += ".align 64\n";
  s += "crc_table: .space 2048\n";
  s += ".text\n";
  return s;
}

// The static text corpus used by stringsearch and wordcount.
std::string text_corpus() {
  std::string text;
  const char* sentences[] = {
      "the quick brown fox jumps over the lazy dog. ",
      "pack my box with five dozen liquor jugs. ",
      "how vexingly quick daft zebras jump! ",
      "sphinx of black quartz judge my vow. ",
      "the five boxing wizards jump quickly. ",
  };
  for (int i = 0; i < 12; ++i) {
    text += sentences[i % 5];
    if (i % 3 == 2) text += "\n";
  }
  return text;
}

// stringsearch: naive pattern scan over a static corpus.
std::string body_stringsearch(std::uint64_t scale) {
  const std::string corpus = text_corpus();
  std::string s;
  s += "work:\n";
  s += "    movi r14, " + num(scale) + "\n";  // passes
  s += "    movi r4, 0\n";                    // match count
  s += "ss_pass:\n";
  s += "    movi r13, 0\n";                   // pattern index 0..3
  s += "ss_pattern:\n";
  // r5 = pattern address = patterns + 8*idx (table of pointers)
  s += "    movi r5, ss_pats\n";
  s += "    shli r6, r13, 3\n";
  s += "    add r5, r5, r6\n";
  s += "    load r5, [r5]\n";
  s += "    movi r6, 0\n";                    // text position
  s += "ss_pos:\n";
  s += "    movi r7, 0\n";                    // pattern position
  s += "ss_cmp:\n";
  s += "    add r8, r5, r7\n";
  s += "    loadb r9, [r8]\n";                // pattern[k]
  s += "    beqz r9, ss_hit\n";               // end of pattern: match
  s += "    movi r8, ss_text\n";
  s += "    add r8, r8, r6\n";
  s += "    add r8, r8, r7\n";
  s += "    loadb r10, [r8]\n";               // text[pos + k]
  s += "    cmpeq r11, r9, r10\n";
  s += "    beqz r11, ss_miss\n";
  s += "    addi r7, r7, 1\n";
  s += "    jmp ss_cmp\n";
  s += "ss_hit:\n";
  s += "    addi r4, r4, 1\n";
  s += "ss_miss:\n";
  s += "    addi r6, r6, 1\n";
  s += "    movi r8, " + num(corpus.size() - 8) + "\n";
  s += "    cmplt r8, r6, r8\n";
  s += "    bnez r8, ss_pos\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r8, 4\n";
  s += "    cmplt r8, r13, r8\n";
  s += "    bnez r8, ss_pattern\n";
  s += "    addi r14, r14, -1\n";
  s += "    bnez r14, ss_pass\n";
  s += "    movi r6, result\n";
  s += "    store [r6], r4\n";
  s += "    ret\n";
  s += ".data\n";
  s += "ss_text: .ascii \"" + casm::escape_ascii(corpus) + "\"\n";
  s += ".byte 0, 0, 0, 0, 0, 0, 0, 0\n";  // guard tail
  s += "ss_p0: .asciz \"quick\"\n";
  s += "ss_p1: .asciz \"jump\"\n";
  s += "ss_p2: .asciz \"wizard\"\n";
  s += "ss_p3: .asciz \"zebra\"\n";
  s += ".align 8\n";
  s += "ss_pats: .word ss_p0, ss_p1, ss_p2, ss_p3\n";
  s += ".text\n";
  return s;
}

// dijkstra: O(V^2) single-source shortest paths over an LCG-weighted
// complete digraph, repeated `scale` times with fresh weights.
std::string body_dijkstra(std::uint64_t scale) {
  constexpr int kV = 20;
  std::string s;
  s += "work:\n";
  s += "    movi r4, 31337\n";  // lcg, lives in r4 across passes
  s += "    movi r14, " + num(scale) + "\n";
  s += "dj_pass:\n";
  // Fill adjacency with weights 1..100.
  s += "    movi r13, 0\n";
  s += "dj_fill:\n";
  s += lcg_step("r4", "r5");
  s += "    movi r5, 100\n";
  s += "    remu r5, r4, r5\n";
  s += "    addi r5, r5, 1\n";
  s += "    movi r6, dj_adj\n";
  s += "    shli r7, r13, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    store [r6], r5\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, " + num(kV * kV) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, dj_fill\n";
  // dist[] = INF except dist[0] = 0; visited[] = 0.
  s += "    movi r13, 0\n";
  s += "dj_init:\n";
  s += "    movi r6, dj_dist\n";
  s += "    shli r7, r13, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    movi r5, 1000000\n";
  s += "    store [r6], r5\n";
  s += "    movi r6, dj_vis\n";
  s += "    add r6, r6, r7\n";
  s += "    movi r5, 0\n";
  s += "    store [r6], r5\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, " + num(kV) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, dj_init\n";
  s += "    movi r6, dj_dist\n";
  s += "    movi r5, 0\n";
  s += "    store [r6], r5\n";
  // Main loop: V iterations of select-min + relax.
  s += "    movi r12, 0\n";  // iteration count
  s += "dj_iter:\n";
  // select unvisited u with min dist -> r10 (index), r11 (dist)
  s += "    movi r10, 0\n";
  s += "    movi r11, 2000000\n";
  s += "    movi r13, 0\n";
  s += "dj_sel:\n";
  s += "    movi r6, dj_vis\n";
  s += "    shli r7, r13, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    load r5, [r6]\n";
  s += "    bnez r5, dj_sel_next\n";
  s += "    movi r6, dj_dist\n";
  s += "    add r6, r6, r7\n";
  s += "    load r5, [r6]\n";
  s += "    cmplt r8, r5, r11\n";
  s += "    beqz r8, dj_sel_next\n";
  s += "    mov r11, r5\n";
  s += "    mov r10, r13\n";
  s += "dj_sel_next:\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, " + num(kV) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, dj_sel\n";
  // mark u visited
  s += "    movi r6, dj_vis\n";
  s += "    shli r7, r10, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    movi r5, 1\n";
  s += "    store [r6], r5\n";
  // relax every j: nd = dist[u] + adj[u][j]
  s += "    movi r13, 0\n";
  s += "dj_relax:\n";
  s += "    movi r6, dj_adj\n";
  s += "    muli r7, r10, " + num(kV * 8) + "\n";
  s += "    add r6, r6, r7\n";
  s += "    shli r7, r13, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    load r5, [r6]\n";     // w(u, j)
  s += "    add r5, r5, r11\n";   // dist[u] + w
  s += "    movi r6, dj_dist\n";
  s += "    add r6, r6, r7\n";
  s += "    load r8, [r6]\n";
  s += "    cmplt r9, r5, r8\n";
  s += "    beqz r9, dj_relax_next\n";
  s += "    store [r6], r5\n";
  s += "dj_relax_next:\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, " + num(kV) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, dj_relax\n";
  s += "    addi r12, r12, 1\n";
  s += "    movi r7, " + num(kV) + "\n";
  s += "    cmplt r7, r12, r7\n";
  s += "    bnez r7, dj_iter\n";
  // checksum += sum of dist[]
  s += "    movi r13, 0\n";
  s += "dj_sum:\n";
  s += "    movi r6, dj_dist\n";
  s += "    shli r7, r13, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    load r5, [r6]\n";
  s += "    movi r6, result\n";
  s += "    load r8, [r6]\n";
  s += "    add r8, r8, r5\n";
  s += "    store [r6], r8\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, " + num(kV) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, dj_sum\n";
  s += "    addi r14, r14, -1\n";
  s += "    bnez r14, dj_pass\n";
  s += "    ret\n";
  s += ".data\n";
  s += ".align 64\n";
  s += "dj_adj: .space " + num(kV * kV * 8) + "\n";
  s += "dj_dist: .space " + num(kV * 8) + "\n";
  s += "dj_vis: .space " + num(kV * 8) + "\n";
  s += ".text\n";
  return s;
}

// susan-like image smoothing: 3x3 mean filter over a byte image.
// Strided memory with short dependent chains.
std::string body_susan(std::uint64_t scale) {
  constexpr int kW = 48, kH = 32;
  std::string s;
  s += "work:\n";
  // Fill the image once.
  s += "    movi r4, 8675309\n";
  s += "    movi r13, 0\n";
  s += "su_fill:\n";
  s += lcg_step("r4", "r5");
  s += "    movi r6, su_img\n";
  s += "    add r6, r6, r13\n";
  s += "    storeb [r6], r4\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, " + num(kW * kH) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, su_fill\n";
  s += "    movi r14, " + num(scale) + "\n";
  s += "su_pass:\n";
  s += "    movi r12, 1\n";  // y
  s += "su_y:\n";
  s += "    movi r11, 1\n";  // x
  s += "su_x:\n";
  // base = img + y*W + x
  s += "    muli r6, r12, " + num(kW) + "\n";
  s += "    add r6, r6, r11\n";
  s += "    movi r7, su_img\n";
  s += "    add r6, r7, r6\n";
  s += "    movi r8, 0\n";  // sum of 9 neighbours
  for (int dy = -1; dy <= 1; ++dy) {
    for (int dx = -1; dx <= 1; ++dx) {
      const int off = dy * kW + dx;
      s += "    loadb r9, [r6" + std::string(off >= 0 ? "+" : "") +
           std::to_string(off) + "]\n";
      s += "    add r8, r8, r9\n";
    }
  }
  s += "    movi r9, 9\n";
  s += "    divu r8, r8, r9\n";
  s += "    storeb [r6], r8\n";
  s += "    addi r11, r11, 1\n";
  s += "    movi r7, " + num(kW - 1) + "\n";
  s += "    cmplt r7, r11, r7\n";
  s += "    bnez r7, su_x\n";
  s += "    addi r12, r12, 1\n";
  s += "    movi r7, " + num(kH - 1) + "\n";
  s += "    cmplt r7, r12, r7\n";
  s += "    bnez r7, su_y\n";
  s += "    addi r14, r14, -1\n";
  s += "    bnez r14, su_pass\n";
  // checksum = sum of all pixels
  s += "    movi r5, 0\n";
  s += "    movi r13, 0\n";
  s += "su_sum:\n";
  s += "    movi r6, su_img\n";
  s += "    add r6, r6, r13\n";
  s += "    loadb r7, [r6]\n";
  s += "    add r5, r5, r7\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, " + num(kW * kH) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, su_sum\n";
  s += "    movi r6, result\n";
  s += "    store [r6], r5\n";
  s += "    ret\n";
  s += ".data\n";
  s += ".align 64\n";
  s += "su_img: .space " + num(kW * kH + kW) + "\n";
  s += ".text\n";
  return s;
}

// pointer_chase ("browser"): dependent loads around a shuffled ring of
// cache-line-sized nodes — cache-miss dominated, benign.
std::string body_pointer_chase(std::uint64_t scale) {
  constexpr int kNodes = 8192;  // 512 KiB of nodes: misses L2 -> DRAM-bound
  std::string s;
  s += "work:\n";
  // node[i].next = &node[(i + 999) % kNodes]
  s += "    movi r13, 0\n";
  s += "pc_build:\n";
  s += "    addi r5, r13, 999\n";
  s += "    movi r6, " + num(kNodes) + "\n";
  s += "    remu r5, r5, r6\n";
  s += "    shli r5, r5, 6\n";
  s += "    movi r6, pc_nodes\n";
  s += "    add r5, r6, r5\n";      // &node[next]
  s += "    shli r7, r13, 6\n";
  s += "    add r7, r6, r7\n";      // &node[i]
  s += "    store [r7], r5\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, " + num(kNodes) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, pc_build\n";
  // chase
  s += "    movi r5, pc_nodes\n";
  s += "    movi r13, " + num(scale) + "\n";
  s += "pc_chase:\n";
  s += "    load r5, [r5]\n";
  s += "    addi r13, r13, -1\n";
  s += "    bnez r13, pc_chase\n";
  s += "    movi r6, result\n";
  s += "    store [r6], r5\n";
  s += "    ret\n";
  s += ".data\n";
  s += ".align 64\n";
  s += "pc_nodes: .space " + num(kNodes * 64) + "\n";
  s += ".text\n";
  return s;
}

// wordcount ("text editor"): byte scanning with compare-heavy control flow.
std::string body_wordcount(std::uint64_t scale) {
  const std::string corpus = text_corpus();
  std::string s;
  s += "work:\n";
  s += "    movi r14, " + num(scale) + "\n";
  s += "    movi r4, 0\n";  // words
  s += "    movi r5, 0\n";  // lines
  s += "wc_pass:\n";
  s += "    movi r6, 0\n";  // pos
  s += "    movi r7, 0\n";  // in_word
  s += "wc_loop:\n";
  s += "    movi r8, wc_text\n";
  s += "    add r8, r8, r6\n";
  s += "    loadb r9, [r8]\n";
  s += "    movi r10, 32\n";  // space
  s += "    cmpeq r10, r9, r10\n";
  s += "    movi r11, 10\n";  // newline
  s += "    cmpeq r11, r9, r11\n";
  s += "    add r5, r5, r11\n";
  s += "    or r10, r10, r11\n";  // is separator
  s += "    beqz r10, wc_inword\n";
  s += "    movi r7, 0\n";
  s += "    jmp wc_next\n";
  s += "wc_inword:\n";
  s += "    bnez r7, wc_next\n";
  s += "    movi r7, 1\n";
  s += "    addi r4, r4, 1\n";
  s += "wc_next:\n";
  s += "    addi r6, r6, 1\n";
  s += "    movi r8, " + num(corpus.size()) + "\n";
  s += "    cmplt r8, r6, r8\n";
  s += "    bnez r8, wc_loop\n";
  s += "    addi r14, r14, -1\n";
  s += "    bnez r14, wc_pass\n";
  s += "    muli r4, r4, 10000\n";
  s += "    add r4, r4, r5\n";
  s += "    movi r6, result\n";
  s += "    store [r6], r4\n";
  s += "    ret\n";
  s += ".data\n";
  s += "wc_text: .ascii \"" + casm::escape_ascii(corpus) + "\"\n";
  s += ".byte 0\n";
  s += ".text\n";
  return s;
}

// stream ("media player"): strided sums over a 96 KiB array — L1-missing,
// L2-hitting loads, the streaming-buffer profile.
std::string body_stream(std::uint64_t scale) {
  constexpr std::uint64_t kBytes = 96 * 1024;
  std::string s;
  s += "work:\n";
  // Touch the buffer once so it is mapped-warm in L2.
  s += "    movi r13, 0\n";
  s += "    movi r5, 0\n";
  s += "st_pass_init:\n";
  s += "    movi r14, " + num(scale) + "\n";
  s += "st_pass:\n";
  s += "    movi r13, 0\n";
  s += "st_loop:\n";
  s += "    movi r6, st_buf\n";
  s += "    add r6, r6, r13\n";
  s += "    load r7, [r6]\n";
  s += "    add r5, r5, r7\n";
  s += "    xori r7, r7, 0x1f\n";
  s += "    addi r13, r13, 64\n";
  s += "    movi r7, " + num(kBytes) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, st_loop\n";
  s += "    addi r14, r14, -1\n";
  s += "    bnez r14, st_pass\n";
  s += "    movi r6, result\n";
  s += "    store [r6], r5\n";
  s += "    ret\n";
  s += ".data\n";
  s += ".align 64\n";
  s += "st_buf: .space " + num(kBytes + 64) + "\n";
  s += ".text\n";
  return s;
}

// binsearch ("database lookups"): LCG-keyed binary searches over a sorted
// array — one genuinely unpredictable branch per iteration.
std::string body_binsearch(std::uint64_t scale) {
  constexpr std::uint64_t kN = 1024;
  std::string s;
  s += "work:\n";
  // arr[i] = i * 7 (sorted by construction).
  s += "    movi r13, 0\n";
  s += "bs_fill:\n";
  s += "    muli r5, r13, 7\n";
  s += "    movi r6, bs_arr\n";
  s += "    shli r7, r13, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    store [r6], r5\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, " + num(kN) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, bs_fill\n";
  s += "    movi r4, 2024\n";   // lcg
  s += "    movi r5, 0\n";      // found count
  s += "    movi r14, " + num(scale) + "\n";
  s += "bs_query:\n";
  s += lcg_step("r4", "r6");
  s += "    movi r6, " + num(kN * 7) + "\n";
  s += "    remu r8, r4, r6\n"; // key
  s += "    movi r9, 0\n";      // lo
  s += "    movi r10, " + num(kN) + "\n";  // hi
  s += "bs_loop:\n";
  s += "    sub r6, r10, r9\n";
  s += "    movi r7, 1\n";
  s += "    cmpltu r7, r6, r7\n";  // hi - lo < 1 ?
  s += "    bnez r7, bs_done\n";
  s += "    add r11, r9, r10\n";
  s += "    shri r11, r11, 1\n";   // mid
  s += "    movi r6, bs_arr\n";
  s += "    shli r7, r11, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    load r12, [r6]\n";     // arr[mid]
  s += "    cmplt r7, r12, r8\n";  // arr[mid] < key — unpredictable
  s += "    beqz r7, bs_upper\n";
  s += "    addi r9, r11, 1\n";    // lo = mid + 1
  s += "    jmp bs_loop\n";
  s += "bs_upper:\n";
  s += "    mov r10, r11\n";       // hi = mid
  s += "    cmpeq r7, r12, r8\n";
  s += "    add r5, r5, r7\n";
  s += "    jmp bs_loop\n";
  s += "bs_done:\n";
  s += "    addi r14, r14, -1\n";
  s += "    bnez r14, bs_query\n";
  s += "    movi r6, result\n";
  s += "    store [r6], r5\n";
  s += "    ret\n";
  s += ".data\n";
  s += ".align 64\n";
  s += "bs_arr: .space " + num(kN * 8) + "\n";
  s += ".text\n";
  return s;
}

// listsum ("ledger walk"): pointer chasing with per-node computation —
// dependent DRAM loads throttled by real work, the linked-data-structure
// profile that sits between pure chasing and pure compute.
std::string body_listsum(std::uint64_t scale) {
  constexpr int kNodes = 8192;  // x 64 B = 512 KiB: every hop misses L2
  std::string s;
  s += "work:\n";
  // node[i] = { next*, value }; permuted ring like pointer_chase.
  s += "    movi r13, 0\n";
  s += "ls_build:\n";
  s += "    addi r5, r13, 1999\n";
  s += "    movi r6, " + num(kNodes) + "\n";
  s += "    remu r5, r5, r6\n";
  s += "    shli r5, r5, 6\n";
  s += "    movi r6, ls_nodes\n";
  s += "    add r5, r6, r5\n";
  s += "    shli r7, r13, 6\n";
  s += "    add r7, r6, r7\n";
  s += "    store [r7], r5\n";
  s += "    store [r7+8], r13\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, " + num(kNodes) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, ls_build\n";
  // walk: the next-pointer load is the serialising memory hop (issued
  // first, so the value load afterwards is an L1 hit on the same line);
  // ~12 ALU ops of per-node work follow.
  s += "    movi r5, ls_nodes\n";
  s += "    movi r8, 0\n";
  s += "    movi r13, " + num(scale) + "\n";
  s += "ls_walk:\n";
  s += "    load r9, [r5]\n";     // next: the dependent memory hop
  s += "    load r6, [r5+8]\n";   // value
  s += "    mov r5, r9\n";        // advance the chain
  s += "    muli r6, r6, 31\n";
  s += "    addi r6, r6, 7\n";
  s += "    xor r8, r8, r6\n";
  s += "    shri r7, r6, 3\n";
  s += "    add r8, r8, r7\n";
  s += "    andi r7, r6, 0xff\n";
  s += "    sub r8, r8, r7\n";
  s += "    shli r7, r7, 2\n";
  s += "    or r8, r8, r7\n";
  s += "    addi r8, r8, 1\n";
  s += "    xori r8, r8, 0x3c\n";
  s += "    addi r13, r13, -1\n";
  s += "    bnez r13, ls_walk\n";
  s += "    movi r6, result\n";
  s += "    store [r6], r8\n";
  s += "    ret\n";
  s += ".data\n";
  s += ".align 64\n";
  s += "ls_nodes: .space " + num(kNodes * 64) + "\n";
  s += ".text\n";
  return s;
}

// hashtable ("key-value cache"): random bucket probes over a 512 KiB
// table — memory-bound with short probe loops, the in-memory-cache profile.
std::string body_hashtable(std::uint64_t scale) {
  constexpr std::uint64_t kBuckets = 8192;  // x 64 B = 512 KiB > L2
  std::string s;
  s += "work:\n";
  s += "    movi r4, 99991\n";  // lcg
  s += "    movi r5, 0\n";      // hit count
  s += "    movi r14, " + num(scale) + "\n";
  s += "ht_op:\n";
  s += lcg_step("r4", "r6");
  s += "    movi r6, " + num(kBuckets - 1) + "\n";
  s += "    and r6, r4, r6\n";     // bucket index
  s += "    shli r6, r6, 6\n";
  s += "    movi r7, ht_tab\n";
  s += "    add r6, r7, r6\n";
  s += "    load r7, [r6]\n";      // bucket header (usually a miss)
  s += "    cmpeq r8, r7, r4\n";   // found?
  s += "    bnez r8, ht_hit\n";
  s += "    load r8, [r6+8]\n";    // probe second slot
  s += "    cmpeq r8, r8, r4\n";
  s += "    bnez r8, ht_hit\n";
  s += "    store [r6], r4\n";     // insert
  s += "    jmp ht_next\n";
  s += "ht_hit:\n";
  s += "    addi r5, r5, 1\n";
  s += "ht_next:\n";
  s += "    addi r14, r14, -1\n";
  s += "    bnez r14, ht_op\n";
  s += "    movi r6, result\n";
  s += "    store [r6], r5\n";
  s += "    ret\n";
  s += ".data\n";
  s += ".align 64\n";
  s += "ht_tab: .space " + num(kBuckets * 64) + "\n";
  s += ".text\n";
  return s;
}

// interp ("bytecode interpreter"): LCG-driven dispatch through a jump
// table — indirect-jump mispredicts plus a mixed ALU/memory body.
std::string body_interp(std::uint64_t scale) {
  std::string s;
  s += "work:\n";
  s += "    movi r4, 31415\n";  // lcg
  s += "    movi r5, 0\n";      // accumulator
  s += "    movi r14, " + num(scale) + "\n";
  s += "in_step:\n";
  s += lcg_step("r4", "r6");
  s += "    andi r6, r4, 3\n";      // opcode 0..3
  s += "    shli r6, r6, 3\n";
  s += "    movi r7, in_table\n";
  s += "    add r7, r7, r6\n";
  s += "    load r7, [r7]\n";       // handler address
  s += "    jmpr r7\n";             // dispatch: BTB-hostile
  s += "in_op0:\n";
  s += "    add r5, r5, r4\n";
  s += "    jmp in_next\n";
  s += "in_op1:\n";
  s += "    xor r5, r5, r4\n";
  s += "    shri r8, r5, 3\n";
  s += "    jmp in_next\n";
  s += "in_op2:\n";
  s += "    movi r8, in_mem\n";
  s += "    andi r9, r4, 0xf8\n";
  s += "    add r8, r8, r9\n";
  s += "    load r9, [r8]\n";
  s += "    add r5, r5, r9\n";
  s += "    jmp in_next\n";
  s += "in_op3:\n";
  s += "    movi r8, in_mem\n";
  s += "    andi r9, r4, 0xf8\n";
  s += "    add r8, r8, r9\n";
  s += "    store [r8], r5\n";
  s += "    jmp in_next\n";
  s += "in_next:\n";
  s += "    addi r14, r14, -1\n";
  s += "    bnez r14, in_step\n";
  s += "    movi r6, result\n";
  s += "    store [r6], r5\n";
  s += "    ret\n";
  s += ".data\n";
  s += ".align 8\n";
  s += "in_table: .word in_op0, in_op1, in_op2, in_op3\n";
  s += ".align 64\n";
  s += "in_mem: .space 256\n";
  s += ".text\n";
  return s;
}

// matmul: dense 24x24 multiply — regular strides, multiply-heavy.
std::string body_matmul(std::uint64_t scale) {
  constexpr int kN = 24;
  std::string s;
  s += "work:\n";
  // Fill A and B once.
  s += "    movi r4, 1717\n";
  s += "    movi r13, 0\n";
  s += "mm_fill:\n";
  s += lcg_step("r4", "r5");
  s += "    andi r5, r4, 0xffff\n";
  s += "    movi r6, mm_a\n";
  s += "    shli r7, r13, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    store [r6], r5\n";
  s += "    movi r6, mm_b\n";
  s += "    add r6, r6, r7\n";
  s += "    xori r5, r5, 0x5a5a\n";
  s += "    store [r6], r5\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, " + num(kN * kN) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, mm_fill\n";
  s += "    movi r14, " + num(scale) + "\n";
  s += "mm_pass:\n";
  s += "    movi r12, 0\n";  // i
  s += "mm_i:\n";
  s += "    movi r11, 0\n";  // j
  s += "mm_j:\n";
  s += "    movi r8, 0\n";   // acc
  s += "    movi r10, 0\n";  // k
  s += "mm_k:\n";
  s += "    muli r6, r12, " + num(kN * 8) + "\n";
  s += "    shli r7, r10, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    movi r7, mm_a\n";
  s += "    add r6, r7, r6\n";
  s += "    load r5, [r6]\n";      // A[i][k]
  s += "    muli r6, r10, " + num(kN * 8) + "\n";
  s += "    shli r7, r11, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    movi r7, mm_b\n";
  s += "    add r6, r7, r6\n";
  s += "    load r7, [r6]\n";      // B[k][j]
  s += "    mul r5, r5, r7\n";
  s += "    add r8, r8, r5\n";
  s += "    addi r10, r10, 1\n";
  s += "    movi r7, " + num(kN) + "\n";
  s += "    cmplt r7, r10, r7\n";
  s += "    bnez r7, mm_k\n";
  s += "    muli r6, r12, " + num(kN * 8) + "\n";
  s += "    shli r7, r11, 3\n";
  s += "    add r6, r6, r7\n";
  s += "    movi r7, mm_c\n";
  s += "    add r6, r7, r6\n";
  s += "    store [r6], r8\n";
  s += "    addi r11, r11, 1\n";
  s += "    movi r7, " + num(kN) + "\n";
  s += "    cmplt r7, r11, r7\n";
  s += "    bnez r7, mm_j\n";
  s += "    addi r12, r12, 1\n";
  s += "    movi r7, " + num(kN) + "\n";
  s += "    cmplt r7, r12, r7\n";
  s += "    bnez r7, mm_i\n";
  s += "    addi r14, r14, -1\n";
  s += "    bnez r14, mm_pass\n";
  // checksum = sum C[i][i]
  s += "    movi r5, 0\n";
  s += "    movi r13, 0\n";
  s += "mm_sum:\n";
  s += "    muli r6, r13, " + num(kN * 8 + 8) + "\n";
  s += "    movi r7, mm_c\n";
  s += "    add r6, r7, r6\n";
  s += "    load r7, [r6]\n";
  s += "    add r5, r5, r7\n";
  s += "    addi r13, r13, 1\n";
  s += "    movi r7, " + num(kN) + "\n";
  s += "    cmplt r7, r13, r7\n";
  s += "    bnez r7, mm_sum\n";
  s += "    movi r6, result\n";
  s += "    store [r6], r5\n";
  s += "    ret\n";
  s += ".data\n";
  s += ".align 64\n";
  s += "mm_a: .space " + num(kN * kN * 8) + "\n";
  s += "mm_b: .space " + num(kN * kN * 8) + "\n";
  s += "mm_c: .space " + num(kN * kN * 8) + "\n";
  s += ".text\n";
  return s;
}

}  // namespace

const std::vector<WorkloadInfo>& host_catalog() {
  static const std::vector<WorkloadInfo> kHosts = {
      {"basicmath", "Newton isqrt + polynomials (MiBench 'Math')"},
      {"bitcount", "Kernighan popcount over an LCG stream"},
      {"sha", "SHA-1 compression over LCG message blocks"},
      {"qsort", "recursive quicksort of LCG values"},
      {"crc32", "table-driven CRC32 over an LCG byte stream"},
      {"stringsearch", "naive pattern search over a text corpus"},
      {"dijkstra", "O(V^2) shortest paths, LCG-weighted graph"},
      {"susan", "3x3 mean filter over a byte image"},
  };
  return kHosts;
}

const std::vector<WorkloadInfo>& benign_pool_catalog() {
  static const std::vector<WorkloadInfo> kPool = {
      {"pointer_chase", "linked-ring traversal ('browser': miss-heavy)"},
      {"wordcount", "word/line counting ('text editor')"},
      {"matmul", "dense 24x24 integer matrix multiply"},
      {"stream", "strided 96KiB buffer sums ('media player': L2-bound)"},
      {"binsearch", "LCG-keyed binary search ('database': mispredict-heavy)"},
      {"hashtable", "random bucket probes over 512KiB ('kv cache': DRAM-bound)"},
      {"interp", "jump-table dispatch ('interpreter': indirect mispredicts)"},
      {"listsum", "linked-list walk with per-node work ('ledger': mid-CPI)"},
  };
  return kPool;
}

bool is_known_workload(const std::string& name) {
  for (const auto& w : host_catalog())
    if (w.name == name) return true;
  for (const auto& w : benign_pool_catalog())
    if (w.name == name) return true;
  return false;
}

std::string generate_workload_source(const std::string& name,
                                     const WorkloadOptions& options) {
  const std::uint64_t scale = std::max<std::uint64_t>(options.scale, 1);
  std::string body;
  if (name == "basicmath") {
    body = body_basicmath(scale);
  } else if (name == "bitcount") {
    body = body_bitcount(scale);
  } else if (name == "sha") {
    body = body_sha(scale);
  } else if (name == "qsort") {
    body = body_qsort(std::min<std::uint64_t>(scale * 8, 2048));
  } else if (name == "crc32") {
    body = body_crc32(scale * 16);
  } else if (name == "stringsearch") {
    body = body_stringsearch(scale);
  } else if (name == "dijkstra") {
    body = body_dijkstra(scale);
  } else if (name == "susan") {
    body = body_susan(scale);
  } else if (name == "pointer_chase") {
    body = body_pointer_chase(scale * 256);
  } else if (name == "wordcount") {
    body = body_wordcount(scale);
  } else if (name == "matmul") {
    body = body_matmul(std::max<std::uint64_t>(scale / 8, 1));
  } else if (name == "stream") {
    body = body_stream(std::max<std::uint64_t>(scale / 4, 1));
  } else if (name == "binsearch") {
    body = body_binsearch(scale * 4);
  } else if (name == "hashtable") {
    body = body_hashtable(scale * 16);
  } else if (name == "interp") {
    body = body_interp(scale * 32);
  } else if (name == "listsum") {
    body = body_listsum(scale * 8);
  } else {
    CRS_ENSURE(false, "unknown workload '" + name + "'");
  }

  std::string s;
  s += "; workload: " + name + " (scale " + num(scale) + ")\n";
  s += ".org " + num(options.link_base) + "\n";
  s += ".entry _start\n";
  s += scaffold(options.canary);
  s += body;
  s += ".data\n";
  s += ".align 8\n";
  s += "result: .word 0\n";
  if (!options.secret.empty()) {
    s += ".align 64\n";
    s += "host_secret: .ascii \"" + casm::escape_ascii(options.secret) + "\"\n";
    s += ".byte 0\n";
  }
  s += ".text\n";
  return s;
}

sim::Program build_workload(const std::string& name,
                            const WorkloadOptions& options) {
  casm::AssembleOptions opt;
  opt.name = name;
  opt.link_base = options.link_base;
  return casm::assemble(
      generate_workload_source(name, options) + casm::runtime_library(), opt);
}

// ---------------------------------------------------------------------------
// C++ mirrors (kept in lockstep with the assembly above).
// ---------------------------------------------------------------------------

namespace mirror {

std::uint64_t basicmath(std::uint64_t scale) {
  std::uint64_t lcg = 12345, sum = 0;
  for (std::uint64_t i = 0; i < scale; ++i) {
    lcg = lcg_next(lcg);
    const std::uint64_t v = lcg;
    std::uint64_t x = v;
    std::uint64_t y = (v >> 1) + 1;
    while (y < x) {
      x = y;
      y = (x + v / x) >> 1;
    }
    sum += x;
    sum ^= ((v * 3 + 7) * v + 11);
  }
  return sum;
}

std::uint64_t bitcount(std::uint64_t scale) {
  std::uint64_t lcg = 98765, count = 0;
  for (std::uint64_t i = 0; i < scale; ++i) {
    lcg = lcg_next(lcg);
    std::uint64_t v = lcg;
    v = v - ((v >> 1) & 0x55555555ull);
    v = (v & 0x33333333ull) + ((v >> 2) & 0x33333333ull);
    v = (v + (v >> 4)) & 0x0f0f0f0full;
    count += ((v * 0x01010101ull) >> 24) & 0xff;
  }
  return count;
}

std::uint64_t crc32(std::uint64_t scale) {
  scale *= 16;  // matches generate_workload_source's scaling
  std::uint64_t table[256];
  for (std::uint64_t n = 0; n < 256; ++n) {
    std::uint64_t c = n;
    for (int k = 0; k < 8; ++k) {
      const bool lsb = (c & 1) != 0;
      c >>= 1;
      if (lsb) c ^= 0xEDB88320ull;
    }
    table[n] = c;
  }
  std::uint64_t lcg = 5381;
  std::uint64_t crc = 0xffffffffull;
  for (std::uint64_t i = 0; i < scale; ++i) {
    lcg = lcg_next(lcg);
    const std::uint64_t byte = (lcg >> 16) & 0xff;
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xff];
  }
  return crc ^ 0xffffffffull;
}

std::uint64_t qsort_checksum(std::uint64_t n) {
  n = std::min<std::uint64_t>(n * 8, 2048);  // matches the scaling
  std::vector<std::uint64_t> arr(n);
  std::uint64_t lcg = 424243;
  for (auto& v : arr) {
    lcg = lcg_next(lcg);
    v = lcg;
  }
  std::sort(arr.begin(), arr.end());
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < n; ++i) sum += arr[i] * (i + 1);
  return sum;
}

std::uint64_t sha(std::uint64_t scale) {
  constexpr std::uint64_t kMask = 0xffffffffull;
  auto rotl = [](std::uint64_t x, int n) {
    return ((x << n) | (x >> (32 - n))) & kMask;
  };
  std::uint64_t h[5] = {0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476,
                        0xC3D2E1F0};
  std::uint64_t lcg = 7919;
  for (std::uint64_t blk = 0; blk < scale; ++blk) {
    std::uint64_t w[80];
    for (int t = 0; t < 16; ++t) {
      lcg = (lcg * kLcgMul + kLcgAdd) & kMask;  // note: 32-bit state in sha
      w[t] = lcg;
    }
    for (int t = 16; t < 80; ++t) {
      w[t] = rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);
    }
    std::uint64_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int t = 0; t < 80; ++t) {
      std::uint64_t f = 0, k = 0;
      if (t < 20) {
        f = (b & c) | ((b ^ kMask) & d);
        k = 0x5A827999;
      } else if (t < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1;
      } else if (t < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDC;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6;
      }
      const std::uint64_t temp = (rotl(a, 5) + f + e + k + w[t]) & kMask;
      e = d;
      d = c;
      c = rotl(b, 30);
      b = a;
      a = temp;
    }
    h[0] = (h[0] + a) & kMask;
    h[1] = (h[1] + b) & kMask;
    h[2] = (h[2] + c) & kMask;
    h[3] = (h[3] + d) & kMask;
    h[4] = (h[4] + e) & kMask;
  }
  return h[0] ^ h[1] ^ h[2] ^ h[3] ^ h[4];
}

}  // namespace mirror

}  // namespace crs::workloads
