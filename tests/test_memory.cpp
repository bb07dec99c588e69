#include <gtest/gtest.h>

#include "sim/memory.hpp"
#include "support/error.hpp"

namespace crs::sim {
namespace {

TEST(Memory, SizeRoundsUpToPages) {
  Memory m(5000);
  EXPECT_EQ(m.size(), 2 * Memory::kPageSize);
  EXPECT_EQ(m.page_count(), 2u);
}

TEST(Memory, ReadWriteRoundTrip) {
  Memory m(8192);
  m.write_u64(16, 0x1122334455667788ull);
  EXPECT_EQ(m.read_u64(16), 0x1122334455667788ull);
  EXPECT_EQ(m.read_u8(16), 0x88);  // little endian
  EXPECT_EQ(m.read_u8(23), 0x11);
}

TEST(Memory, BytesRoundTrip) {
  Memory m(8192);
  const std::vector<std::uint8_t> data{1, 2, 3, 4, 5};
  m.write_bytes(100, data);
  EXPECT_EQ(m.read_bytes(100, 5), data);
}

TEST(Memory, OutOfRangeAccessesThrow) {
  Memory m(4096);
  EXPECT_THROW(m.read_u8(4096), Error);
  EXPECT_THROW(m.read_u64(4090), Error);
  EXPECT_THROW(m.write_u64(4095, 1), Error);
}

TEST(Memory, PermissionsDefaultToNone) {
  Memory m(8192);
  EXPECT_FALSE(m.check(0, 1, AccessKind::kRead));
  EXPECT_FALSE(m.check(0, 1, AccessKind::kWrite));
  EXPECT_FALSE(m.check(0, 1, AccessKind::kExecute));
}

TEST(Memory, PermissionsArePerPage) {
  Memory m(4 * Memory::kPageSize);
  m.set_permissions(0, Memory::kPageSize, kPermRX);
  m.set_permissions(Memory::kPageSize, Memory::kPageSize, kPermRW);
  EXPECT_TRUE(m.check(0, 8, AccessKind::kExecute));
  EXPECT_FALSE(m.check(0, 8, AccessKind::kWrite));
  EXPECT_TRUE(m.check(Memory::kPageSize, 8, AccessKind::kWrite));
  EXPECT_FALSE(m.check(Memory::kPageSize, 8, AccessKind::kExecute));
}

TEST(Memory, CheckSpanningPagesRequiresBoth) {
  Memory m(4 * Memory::kPageSize);
  m.set_permissions(0, Memory::kPageSize, kPermRead);
  // Crossing into an unmapped page fails.
  EXPECT_FALSE(m.check(Memory::kPageSize - 4, 8, AccessKind::kRead));
  m.set_permissions(Memory::kPageSize, Memory::kPageSize, kPermRead);
  EXPECT_TRUE(m.check(Memory::kPageSize - 4, 8, AccessKind::kRead));
}

TEST(Memory, CheckRejectsOverflowAndZeroLength) {
  Memory m(4096);
  m.set_permissions(0, 4096, kPermRead);
  EXPECT_FALSE(m.check(0, 0, AccessKind::kRead));
  EXPECT_FALSE(m.check(4090, 100, AccessKind::kRead));
  EXPECT_FALSE(m.check(~0ull, 8, AccessKind::kRead));
}

// --- zero-length guards -------------------------------------------------
// bump_versions(addr, 0) used to compute (addr + len - 1), which underflows
// at addr == 0; set_permissions used to hard-fail on an empty span. Empty
// spans are no-ops everywhere now (the loader maps zero-byte segments).

TEST(Memory, EmptyWriteBytesIsANoOp) {
  Memory m(8192);
  const std::uint32_t v0 = m.page_version(0);
  m.write_bytes(0, std::span<const std::uint8_t>{});
  m.write_bytes(8192, std::span<const std::uint8_t>{});  // at the very end
  EXPECT_EQ(m.page_version(0), v0);
  EXPECT_EQ(m.read_u8(0), 0);
}

TEST(Memory, EmptyReadBytesIsEmpty) {
  Memory m(8192);
  EXPECT_TRUE(m.read_bytes(0, 0).empty());
  EXPECT_TRUE(m.read_bytes(8192, 0).empty());
  EXPECT_TRUE(m.read_span(0, 0).empty());
}

TEST(Memory, EmptySetPermissionsIsANoOp) {
  Memory m(8192);
  const std::uint32_t v0 = m.page_version(0);
  m.set_permissions(0, 0, kPermRW);  // no page overlaps an empty span
  EXPECT_EQ(m.permissions_at(0), kPermNone);
  EXPECT_EQ(m.page_version(0), v0);
  EXPECT_THROW(m.set_permissions(8193, 0x10000, kPermRW), Error);
}

// --- copy-on-write forking ----------------------------------------------

TEST(MemoryCow, FreshImageIsSparse) {
  Memory m(16 * 1024 * 1024);
  const auto img = m.freeze();
  EXPECT_EQ(img->page_count(), m.page_count());
  EXPECT_EQ(img->stored_page_count(), 0u);  // all pristine → all zero-page
}

TEST(MemoryCow, ForkMatchesSourceBitForBit) {
  Memory m(4 * Memory::kPageSize);
  m.set_permissions(0, Memory::kPageSize, kPermRX);
  m.write_u64(64, 0xABCDEF);
  m.write_u8(Memory::kPageSize + 5, 0x77);
  const auto img = m.freeze();
  EXPECT_EQ(img->stored_page_count(), 2u);  // only the touched pages

  Memory fork(img);
  EXPECT_EQ(fork.size(), m.size());
  EXPECT_EQ(fork.read_u64(64), 0xABCDEFull);
  EXPECT_EQ(fork.read_u8(Memory::kPageSize + 5), 0x77);
  EXPECT_EQ(fork.permissions_at(0), kPermRX);
  for (std::uint64_t p = 0; p < m.page_count(); ++p) {
    EXPECT_EQ(fork.page_version(p), m.page_version(p));
  }
  EXPECT_EQ(fork.promoted_pages(), 0u);  // reads never promote
}

TEST(MemoryCow, WritePromotesAndBumpsVersion) {
  Memory m(4 * Memory::kPageSize);
  m.write_u64(100, 0x1111);
  const auto img = m.freeze();

  Memory fork(img);
  const std::uint32_t v = fork.page_version(0);
  fork.write_u8(101, 0x22);
  EXPECT_EQ(fork.promoted_pages(), 1u);
  EXPECT_GT(fork.page_version(0), v);
  // The promotion copied the baseline bytes before the write landed.
  EXPECT_EQ(fork.read_u64(100), (0x1111ull & ~0xFF00ull) | 0x2200ull);
  // Repeated writes to a promoted page allocate nothing further.
  fork.write_u64(200, 0x3333);
  EXPECT_EQ(fork.promoted_pages(), 1u);
}

TEST(MemoryCow, ForksAreIsolatedFromEachOtherAndTheImage) {
  Memory m(2 * Memory::kPageSize);
  m.write_u8(10, 0xAA);
  const auto img = m.freeze();

  Memory a(img);
  Memory b(img);
  a.write_u8(10, 0xBB);
  EXPECT_EQ(a.read_u8(10), 0xBB);
  EXPECT_EQ(b.read_u8(10), 0xAA);  // sibling untouched
  Memory c(img);
  EXPECT_EQ(c.read_u8(10), 0xAA);  // image untouched
}

TEST(MemoryCow, PermissionChangesNeedNoPromotion) {
  Memory m(2 * Memory::kPageSize);
  const auto img = m.freeze();
  Memory fork(img);
  const std::uint32_t v = fork.page_version(0);
  fork.set_permissions(0, Memory::kPageSize, kPermRW);
  EXPECT_EQ(fork.promoted_pages(), 0u);  // perms live in fork metadata
  EXPECT_GT(fork.page_version(0), v);    // but derived state still misses
  EXPECT_EQ(fork.permissions_at(0), kPermRW);
  Memory sibling(img);
  EXPECT_EQ(sibling.permissions_at(0), kPermNone);
}

TEST(MemoryCow, ReadSpanAcrossNonAdjacentFramesCopies) {
  Memory m(4 * Memory::kPageSize);
  m.write_u8(Memory::kPageSize - 1, 0x11);  // page 0 stored in the image
  const auto img = m.freeze();

  Memory fork(img);
  // Page 1 stays a shared zero page while page 0 is image storage: the two
  // frames are not adjacent, so a straddling span must be assembled.
  const auto span = fork.read_span(Memory::kPageSize - 4, 8);
  ASSERT_EQ(span.size(), 8u);
  EXPECT_EQ(span[3], 0x11);
  EXPECT_EQ(span[4], 0x00);
  // Same straddle after promoting page 1: frames still non-adjacent.
  fork.write_u8(Memory::kPageSize + 2, 0x55);
  const auto span2 = fork.read_span(Memory::kPageSize - 4, 8);
  EXPECT_EQ(span2[3], 0x11);
  EXPECT_EQ(span2[6], 0x55);
}

TEST(MemoryCow, CrossPageWordAccessesWork) {
  Memory m(2 * Memory::kPageSize);
  const auto img = m.freeze();
  Memory fork(img);
  const std::uint64_t addr = Memory::kPageSize - 3;  // straddles the seam
  fork.write_u64(addr, 0x1122334455667788ull);
  EXPECT_EQ(fork.read_u64(addr), 0x1122334455667788ull);
  EXPECT_EQ(fork.promoted_pages(), 2u);  // both pages dirtied
  EXPECT_GT(fork.page_version(0), 1u);
  EXPECT_GT(fork.page_version(1), 1u);
}

TEST(MemoryCow, ResidentBytesTracksPromotionsOnly) {
  Memory m(16 * Memory::kPageSize);
  EXPECT_EQ(m.resident_bytes(), 0u);  // every page aliases the zero page
  EXPECT_EQ(m.read_u64(3 * Memory::kPageSize), 0u);
  EXPECT_EQ(m.resident_bytes(), 0u);  // reads never promote
  m.write_u8(0, 1);
  m.write_u8(5 * Memory::kPageSize, 1);
  EXPECT_EQ(m.resident_bytes(), 2 * Memory::kPageSize);

  Memory fork(m.freeze());
  EXPECT_EQ(fork.resident_bytes(), 0u);
  fork.write_u8(0, 2);
  EXPECT_EQ(fork.resident_bytes(), Memory::kPageSize);
}

TEST(MemoryWatch, OnlyReadsOverlappingAnArmedWordFire) {
  Memory m(2 * Memory::kPageSize);
  m.watch_word(100);
  m.write_u64(100, 7);  // writes never fire
  m.write_u8(103, 1);
  (void)m.read_u64(92);   // ends at 99: adjacent below
  (void)m.read_u8(108);   // adjacent above
  (void)m.read_bytes(0, 100);
  (void)m.read_span(108, 8);
  EXPECT_FALSE(m.watch_fired());

  (void)m.read_u8(107);  // last byte of the word
  EXPECT_TRUE(m.watch_fired());
  m.clear_watch();
  EXPECT_FALSE(m.watch_fired());
  (void)m.read_u8(107);  // cleared: the word is no longer armed
  EXPECT_FALSE(m.watch_fired());

  // Every accessor fires on an overlap, including zero-copy spans and a
  // word read that straddles the armed word's first byte.
  const auto fires = [&](const auto& read) {
    m.clear_watch();
    m.watch_word(200);
    read();
    return m.watch_fired();
  };
  EXPECT_TRUE(fires([&] { (void)m.read_u64(193); }));
  EXPECT_TRUE(fires([&] { (void)m.read_u8(200); }));
  EXPECT_TRUE(fires([&] { (void)m.read_bytes(150, 51); }));
  EXPECT_TRUE(fires([&] { (void)m.read_span(207, 1); }));
  EXPECT_FALSE(fires([&] { (void)m.read_bytes(150, 50); }));
  EXPECT_FALSE(fires([&] { (void)m.read_span(208, 8); }));
}

TEST(MemoryWatch, TwoWordsAreTrackedAndAThirdCountsAsRead) {
  Memory m(Memory::kPageSize);
  m.watch_word(64);
  m.watch_word(512);
  (void)m.read_u64(128);
  EXPECT_FALSE(m.watch_fired());
  (void)m.read_u64(512);
  EXPECT_TRUE(m.watch_fired());

  m.clear_watch();
  m.watch_word(64);
  m.watch_word(512);
  m.watch_word(1024);  // no free slot
  EXPECT_TRUE(m.watch_fired());
}

TEST(Memory, DepIsExpressible) {
  // Write+execute never co-exist in the loader's use of this API; verify
  // the primitive supports the W^X split it relies on.
  Memory m(2 * Memory::kPageSize);
  m.set_permissions(0, Memory::kPageSize, kPermRX);  // code
  m.set_permissions(Memory::kPageSize, Memory::kPageSize, kPermRW);  // stack
  EXPECT_FALSE(m.check(Memory::kPageSize, 8, AccessKind::kExecute));
  EXPECT_FALSE(m.check(0, 8, AccessKind::kWrite));
}

}  // namespace
}  // namespace crs::sim
