// Two-pass assembler for the simulated ISA.
//
// Programs (workload hosts, the CR-Spectre attack binary, perturbation
// variants) are written as assembly text and assembled into relocatable
// sim::Program images. Supporting a textual surface keeps the generated
// attack variants inspectable — the perturbation engine emits assembly, and
// tests can disassemble what it produced.
//
// Syntax (one statement per line; `;` or `#` starts a comment):
//
//   .org  0x10000          link base (must precede any emission)
//   .entry main            entry label (default: `_start`, else text start)
//   .text / .rodata / .data   section switch (RX / R / RW pages)
//   .byte  1, 2, 0x1f      bytes
//   .word  1, label, label+8   64-bit words; labels create relocations
//   .ascii "text"          raw bytes (supports \n \t \0 \\ \")
//   .asciz "text"          ...plus a terminating NUL
//   .space 128 [, fill]    zero (or `fill`)-initialised bytes
//   .align 64              pad section to a boundary
//   .equ   NAME, 42        numeric constant usable wherever an int is
//
//   label:                 (may share a line with an instruction)
//   add   r1, r2, r3
//   movi  r1, label        address immediate (relocated)
//   load  r1, [r2+8]       memory operands: [reg], [reg+int], [reg+label]
//   store [r2+8], r1
//   beqz  r1, label
//
// Section layout: .text at the link base, then .rodata, then .data, each
// page-aligned. All label immediates are recorded as relocations so the
// kernel can rebase the image under ASLR.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "sim/program.hpp"

namespace crs::casm {

struct AssembleOptions {
  std::string name = "program";
  std::uint64_t link_base = 0x10000;
};

/// Assembles `source`; throws crs::Error with a line number on any syntax
/// or resolution error.
sim::Program assemble(std::string_view source,
                      const AssembleOptions& options = {});

/// A program plus where its .text instructions came from.
struct Listing {
  sim::Program program;
  /// Link-time address of every .text instruction -> its 1-based source
  /// line, read off the statements the assembly laid out.
  std::map<std::uint64_t, int> text_lines;
};

/// assemble() that also reports the source line of each .text instruction.
Listing assemble_listing(std::string_view source,
                         const AssembleOptions& options = {});

/// Disassembles the .text segment (debugging aid; one instruction per line
/// prefixed with its link-time address).
std::string disassemble_text(const sim::Program& program);

/// `text` escaped for the inside of an `.ascii "..."` string: newline, tab,
/// NUL, `\` and `"` become the escapes the assembler decodes back.
std::string escape_ascii(std::string_view text);

}  // namespace crs::casm
