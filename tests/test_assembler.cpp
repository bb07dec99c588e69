#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "casm/assembler.hpp"
#include "casm/runtime.hpp"
#include "isa/isa.hpp"
#include "support/error.hpp"

namespace crs::casm {
namespace {

using isa::Opcode;

isa::Instruction first_instruction(const sim::Program& p) {
  for (const auto& seg : p.segments) {
    if (seg.name == ".text") {
      const auto i = isa::decode(
          std::span<const std::uint8_t>(seg.bytes).first(isa::kInstructionSize));
      EXPECT_TRUE(i.has_value());
      return *i;
    }
  }
  ADD_FAILURE() << "no .text segment";
  return {};
}

TEST(Assembler, EncodesSimpleInstruction) {
  const auto p = assemble("movi r1, 42\n");
  const auto i = first_instruction(p);
  EXPECT_EQ(i.op, Opcode::kMovImm);
  EXPECT_EQ(i.rd, 1);
  EXPECT_EQ(i.imm, 42);
}

TEST(Assembler, ThreeRegisterForm) {
  const auto i = first_instruction(assemble("add r1, r2, sp\n"));
  EXPECT_EQ(i.op, Opcode::kAdd);
  EXPECT_EQ(i.rd, 1);
  EXPECT_EQ(i.rs1, 2);
  EXPECT_EQ(i.rs2, isa::kStackPointer);
}

TEST(Assembler, MemoryOperands) {
  const auto load = first_instruction(assemble("load r3, [r4+24]\n"));
  EXPECT_EQ(load.op, Opcode::kLoad);
  EXPECT_EQ(load.rs1, 4);
  EXPECT_EQ(load.imm, 24);

  const auto store = first_instruction(assemble("storeb [r4-8], r5\n"));
  EXPECT_EQ(store.op, Opcode::kStoreB);
  EXPECT_EQ(store.imm, -8);
  EXPECT_EQ(store.rs2, 5);

  const auto bare = first_instruction(assemble("load r1, [r2]\n"));
  EXPECT_EQ(bare.imm, 0);
}

TEST(Assembler, LabelBranchTargetsAreAbsolute) {
  const auto p = assemble(
      "start: nop\n"
      "loop: addi r1, r1, 1\n"
      "      bnez r1, loop\n");
  EXPECT_EQ(p.symbol("loop"), p.link_base + 8);
  // The branch (third instruction) encodes loop's absolute address.
  const auto& text = p.segments.front();
  const auto branch = isa::decode(
      std::span<const std::uint8_t>(text.bytes).subspan(16, 8));
  ASSERT_TRUE(branch.has_value());
  EXPECT_EQ(static_cast<std::uint32_t>(branch->imm), p.link_base + 8);
}

TEST(Assembler, LabelImmediatesProduceRelocations) {
  const auto p = assemble(
      "movi r1, data_item\n"
      "halt\n"
      ".data\n"
      "data_item: .word 7\n");
  ASSERT_FALSE(p.relocations.empty());
  const auto& rel = p.relocations.front();
  EXPECT_EQ(rel.kind, sim::RelocKind::kImm32);
  EXPECT_EQ(rel.offset, 4u);  // imm field of the first instruction
}

TEST(Assembler, WordLabelsProduceWord64Relocations) {
  const auto p = assemble(
      "halt\n"
      ".data\n"
      "tbl: .word tbl, 9\n");
  bool found = false;
  for (const auto& rel : p.relocations) {
    if (rel.kind == sim::RelocKind::kWord64) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Assembler, SectionsGetDistinctPermissions) {
  const auto p = assemble(
      "halt\n"
      ".rodata\n"
      ".ascii \"ro\"\n"
      ".data\n"
      ".byte 1\n");
  ASSERT_EQ(p.segments.size(), 3u);
  EXPECT_EQ(p.segments[0].perm, sim::kPermRX);
  EXPECT_EQ(p.segments[1].perm, sim::kPermRead);
  EXPECT_EQ(p.segments[2].perm, sim::kPermRW);
  // Page-aligned, non-overlapping, ordered.
  EXPECT_GT(p.segments[1].addr, p.segments[0].addr);
  EXPECT_EQ(p.segments[1].addr % sim::Memory::kPageSize, 0u);
  EXPECT_GT(p.segments[2].addr, p.segments[1].addr);
}

TEST(Assembler, DataDirectives) {
  const auto p = assemble(
      "halt\n"
      ".data\n"
      "a: .byte 1, 2, 0xff\n"
      "b: .word 0x1122334455667788\n"
      "c: .ascii \"hi\\n\"\n"
      "d: .asciz \"z\"\n"
      "e: .space 4, 0xaa\n");
  const auto& data = p.segments.back();
  EXPECT_EQ(data.bytes[0], 1);
  EXPECT_EQ(data.bytes[2], 0xff);
  EXPECT_EQ(data.bytes[3], 0x88);  // little-endian word
  EXPECT_EQ(data.bytes[10], 0x11);
  EXPECT_EQ(data.bytes[11], 'h');
  EXPECT_EQ(data.bytes[13], '\n');
  EXPECT_EQ(data.bytes[14], 'z');
  EXPECT_EQ(data.bytes[15], 0);
  EXPECT_EQ(data.bytes[16], 0xaa);
  EXPECT_EQ(p.symbol("e") - p.symbol("a"), 16u);
}

TEST(Assembler, AlignPadsWithinSection) {
  const auto p = assemble(
      "halt\n"
      ".data\n"
      ".byte 1\n"
      ".align 64\n"
      "aligned: .byte 2\n");
  EXPECT_EQ(p.symbol("aligned") % 64, 0u);
}

TEST(Assembler, EquConstantsSubstitute) {
  const auto p = assemble(
      ".equ LEN, 12\n"
      "movi r1, LEN\n"
      "addi r1, r1, LEN-2\n");
  const auto i = first_instruction(p);
  EXPECT_EQ(i.imm, 12);
}

TEST(Assembler, LabelPlusOffsetExpressions) {
  const auto p = assemble(
      "movi r1, buf+8\n"
      "halt\n"
      ".data\n"
      "buf: .space 16\n");
  const auto i = first_instruction(p);
  EXPECT_EQ(static_cast<std::uint32_t>(i.imm), p.symbol("buf") + 8);
}

TEST(Assembler, LabelDifferenceComputesLength) {
  const auto p = assemble(
      "movi r1, msg_end-msg\n"
      "halt\n"
      ".data\n"
      "msg: .ascii \"hello\"\n"
      "msg_end:\n");
  EXPECT_EQ(first_instruction(p).imm, 5);
  // Distances are position-independent: no relocation for them.
  EXPECT_TRUE(p.relocations.empty());
}

TEST(Assembler, LabelDifferencePlusAddend) {
  const auto p = assemble(
      "movi r1, b-a+3\n"
      "halt\n"
      ".data\n"
      "a: .space 16\n"
      "b: .byte 1\n");
  EXPECT_EQ(first_instruction(p).imm, 19);
}

TEST(Assembler, LoneNegatedLabelRejected) {
  EXPECT_THROW(assemble("x: movi r1, 5-x\n"), Error);  // ok actually: 5-x has pos? no
}

TEST(Assembler, EntryDirectiveAndDefault) {
  const auto p1 = assemble(".entry go\nnop\ngo: halt\n");
  EXPECT_EQ(p1.entry, p1.symbol("go"));
  const auto p2 = assemble("nop\n_start: halt\n");
  EXPECT_EQ(p2.entry, p2.symbol("_start"));
  const auto p3 = assemble("nop\n");
  EXPECT_EQ(p3.entry, p3.link_base);
}

TEST(Assembler, OrgSetsLinkBase) {
  const auto p = assemble(".org 0x40000\nstart: halt\n");
  EXPECT_EQ(p.link_base, 0x40000u);
  EXPECT_EQ(p.symbol("start"), 0x40000u);
}

TEST(Assembler, CommentsAndBlankLinesIgnored) {
  const auto p = assemble(
      "; full comment\n"
      "   # another\n"
      "\n"
      "movi r1, 1 ; trailing\n"
      "halt # trailing too\n");
  EXPECT_EQ(first_instruction(p).op, Opcode::kMovImm);
}

TEST(Assembler, ErrorsCarryLineNumbers) {
  try {
    assemble("nop\nbogus r1\n");
    FAIL() << "expected error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Assembler, RejectsUnknownLabel) {
  EXPECT_THROW(assemble("jmp nowhere\n"), Error);
}

TEST(Assembler, RejectsDuplicateLabel) {
  EXPECT_THROW(assemble("a: nop\na: nop\n"), Error);
}

TEST(Assembler, RejectsWrongOperandCount) {
  EXPECT_THROW(assemble("add r1, r2\n"), Error);
  EXPECT_THROW(assemble("ret r1\n"), Error);
}

TEST(Assembler, RejectsInstructionsOutsideText) {
  EXPECT_THROW(assemble(".data\nnop\n"), Error);
}

TEST(Assembler, RejectsByteWithAddress) {
  EXPECT_THROW(assemble("x: halt\n.data\n.byte x\n"), Error);
}

TEST(Assembler, RuntimeLibraryAssembles) {
  const auto p = assemble(std::string("_start: halt\n") + runtime_library());
  EXPECT_GT(p.symbol("memcpy"), 0u);
  EXPECT_GT(p.symbol("restore_r0"), 0u);
  EXPECT_GT(p.symbol("syscall_fn"), 0u);
  EXPECT_GT(p.symbol("__canary"), 0u);
}

TEST(Assembler, ListingNamesTheLineOfEachTextInstruction) {
  // Upper-case directives and an empty .word operand lay out as their
  // plain spellings: 8 + 4 + 16 bytes, then .align pads to 32.
  const std::string source =
      "_start:\n"
      "  nop\n"
      "  .BYTE 1, 2, 3, 4\n"
      "  .word 0,,0\n"
      "  .align 8\n"
      "x: halt ; the line's label and comment do not move it\n"
      ".data\n"
      "  .word 7\n";
  const Listing listing = assemble_listing(source);
  EXPECT_EQ(listing.text_lines,
            (std::map<std::uint64_t, int>{{0x10000, 2}, {0x10020, 6}}));
  EXPECT_EQ(listing.program.symbol("x"), 0x10020u);
  const sim::Program plain = assemble(source);
  ASSERT_EQ(listing.program.segments.size(), plain.segments.size());
  for (std::size_t i = 0; i < plain.segments.size(); ++i) {
    EXPECT_EQ(listing.program.segments[i].bytes, plain.segments[i].bytes);
  }
}

TEST(Assembler, DisassembleTextListsInstructions) {
  const auto p = assemble("movi r1, 5\nhalt\n");
  const auto text = disassemble_text(p);
  EXPECT_NE(text.find("movi r1, 5"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
}

// Negative tests asserting the *message*, not just that assembly failed:
// a misleading diagnostic is a bug even when the rejection is correct.
void expect_asm_error(const std::string& source, const std::string& substr) {
  try {
    assemble(source);
    ADD_FAILURE() << "expected assembly of:\n"
                  << source << "to fail with '" << substr << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(substr), std::string::npos)
        << "actual message: " << e.what();
  }
}

TEST(AssemblerErrors, WrongOperandCountNamesTheMnemonic) {
  expect_asm_error("add r1, r2\n", "add expects 3 operand(s)");
  expect_asm_error("movi r1\n", "movi expects 2 operand(s)");
  expect_asm_error("ret r1\n", "ret expects 0 operand(s)");
}

TEST(AssemblerErrors, MalformedOperands) {
  expect_asm_error("mov r1, 5\n", "expected a register, got '5'");
  expect_asm_error("add r1, r2, bogus\n", "expected a register, got 'bogus'");
  expect_asm_error("load r1, r2\n", "expected a memory operand [reg+disp]");
  expect_asm_error("store 42, r1\n", "expected a memory operand [reg+disp]");
}

TEST(AssemblerErrors, DuplicateLabelIsNamed) {
  expect_asm_error("a: nop\na: nop\n", "duplicate label 'a'");
}

TEST(AssemblerErrors, UnknownLabelAndMnemonicAreNamed) {
  expect_asm_error("jmp nowhere\n", "unknown label 'nowhere'");
  expect_asm_error("frob r1, r2, r3\n", "unknown mnemonic 'frob'");
}

TEST(AssemblerErrors, OutOfRangeImmediate) {
  expect_asm_error("movi r1, 0x100000000\n", "immediate out of 32-bit range");
  expect_asm_error("addi r1, r1, -2147483649\n",
                   "immediate out of 32-bit range");
}

TEST(AssemblerErrors, UnterminatedStringDirective) {
  expect_asm_error(".data\n.ascii \"abc\n", "expected a quoted string");
  expect_asm_error(".data\n.asciz no_quotes\n", "expected a quoted string");
}

TEST(AssemblerErrors, UnknownStringEscape) {
  expect_asm_error(".data\n.ascii \"a\\qb\"\n", "unknown escape \\q");
}

TEST(AssemblerErrors, MalformedDirectives) {
  expect_asm_error(".equ ONLY_NAME\n", ".equ NAME, value");
  expect_asm_error(".data\n.word\n", ".word needs values");
  expect_asm_error(".data\n.space\n", ".space needs a size");
  expect_asm_error(".woops 3\n", "unknown directive '.woops'");
}

TEST(AssemblerErrors, OversizedSectionRefusedBeforeAllocating) {
  // Refused with an error before the bytes are allocated: no bad_alloc, no
  // 8 EiB fill.
  expect_asm_error("nop\n.data\n.space 9223372036854775807\n",
                   "asm line 3: section would exceed");
  expect_asm_error(".data\n.byte 1\n.align 1099511627776\n",
                   "asm line 3: section would exceed");
  // The bound covers the section's running size: sixteen 1 MiB lines fill
  // a default machine's 16 MiB, the seventeenth does not fit.
  std::string src = ".data\n";
  for (int i = 0; i < 16; ++i) src += ".space 1048576\n";
  EXPECT_NO_THROW(assemble(src));
  expect_asm_error(src + ".space 1\n", "asm line 18: section would exceed");
}

TEST(AssemblerErrors, MessagesCarryTheFailingLineNumber) {
  expect_asm_error("nop\nnop\nadd r1, r2\n", "asm line 3:");
  expect_asm_error(".data\n.byte\n", "asm line 2:");
}

}  // namespace
}  // namespace crs::casm
