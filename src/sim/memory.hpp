// Byte-addressable simulated physical memory with per-page permissions.
//
// Page permissions model the defenses the paper's ROP chain must respect:
// Data Execution Prevention (stack/heap writable but not executable, code
// executable but not writable). The gadget scanner only scans executable
// pages; the CPU faults on any fetch from a non-executable page, so a naive
// "write shellcode to the stack" attack fails while the ROP chain succeeds.
//
// Backing modes (DESIGN.md §10). A Memory owns either
//  - a private flat store (the classic mode: one contiguous allocation,
//    zero-filled at construction), or
//  - a copy-on-write view of a refcounted frozen MemoryImage: every page
//    starts as a read-only alias of the shared baseline frame and is
//    promoted to a private 4 KiB frame on its first write. A fork therefore
//    costs O(metadata) to create and O(pages actually dirtied) to run —
//    the replication engine behind population-scale campaign fan-out.
// Both modes sit behind one per-page frame table, so the hot accessors are
// mode-oblivious; the per-page content versions (the decode-cache / SMC
// coherence machinery) work unchanged because promotions happen exactly on
// the writes that bump them.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

namespace crs::sim {

/// Page permission bitmask.
enum Perm : std::uint8_t {
  kPermNone = 0,
  kPermRead = 1,
  kPermWrite = 2,
  kPermExec = 4,
  kPermRW = kPermRead | kPermWrite,
  kPermRX = kPermRead | kPermExec,
};

enum class AccessKind { kRead, kWrite, kExecute };

class MemoryImage;

class Memory {
 public:
  static constexpr std::uint64_t kPageSize = 4096;

  /// Private mode. Size is rounded up to a whole number of pages. Pages
  /// start with no permissions; mapping regions is the loader's job.
  explicit Memory(std::uint64_t size_bytes);

  /// Copy-on-write fork: every page aliases the image's frame until first
  /// write. The image is refcounted and immutable, so any number of forks
  /// (across threads) can share it concurrently.
  explicit Memory(std::shared_ptr<const MemoryImage> image);

  // The frame tables hold raw pointers into the backing stores. Moves are
  // safe (vector/deque moves transfer the heap buffers the pointers target)
  // but a copy would alias the source's frames — fork via freeze() instead.
  Memory(const Memory&) = delete;
  Memory& operator=(const Memory&) = delete;
  Memory(Memory&&) = default;
  Memory& operator=(Memory&&) = default;

  /// Freezes the current contents into an immutable, shareable image (the
  /// fork baseline). Pristine pages — version 1, i.e. never written or
  /// remapped — all alias one static zero page, so freezing a fresh 16 MiB
  /// machine stores no page data at all.
  std::shared_ptr<const MemoryImage> freeze() const;

  std::uint64_t size() const { return size_; }
  std::uint64_t page_count() const { return perms_.size(); }

  /// Sets permissions for every page overlapping [addr, addr+len).
  /// A zero-length span is a no-op (nothing overlaps it).
  void set_permissions(std::uint64_t addr, std::uint64_t len, Perm perm);

  /// Permissions of the page containing `addr` (kPermNone out of range).
  Perm permissions_at(std::uint64_t addr) const;

  /// True when every byte of [addr, addr+len) is in range and its page
  /// grants the given access.
  bool check(std::uint64_t addr, std::uint64_t len, AccessKind kind) const;

  // Raw accessors. Bounds are enforced (crs::Error on violation) but
  // permissions are NOT: the CPU checks permissions and models faults;
  // the loader and the test harness bypass them deliberately.
  std::uint8_t read_u8(std::uint64_t addr) const;
  std::uint64_t read_u64(std::uint64_t addr) const;
  void write_u8(std::uint64_t addr, std::uint8_t value);
  void write_u64(std::uint64_t addr, std::uint64_t value);

  void write_bytes(std::uint64_t addr, std::span<const std::uint8_t> data);
  std::vector<std::uint8_t> read_bytes(std::uint64_t addr,
                                       std::uint64_t len) const;

  /// Zero-copy view of [addr, addr+len) when the bytes are physically
  /// contiguous (always within one page; across pages whenever the backing
  /// frames happen to be adjacent), else a copy into an internal scratch
  /// buffer. Valid until the next read_span call or any mutation of this
  /// Memory. Used on the instruction-fetch fast path, whose callers decode
  /// the span immediately.
  std::span<const std::uint8_t> read_span(std::uint64_t addr,
                                          std::uint64_t len) const;

  /// Monotonic per-page content version. Every write (write_u8/u64/bytes)
  /// and every permission change touching a page bumps its version, so
  /// consumers holding state derived from page contents (the decode cache)
  /// can detect staleness with one integer compare. Versions start at 1 so
  /// a consumer initialised to 0 always misses on first use. A fork starts
  /// from the image's version values (compared only for equality
  /// everywhere, so the inherited magnitudes are behaviour-neutral).
  std::uint32_t page_version(std::uint64_t page_index) const {
    return page_index < versions_.size() ? versions_[page_index] : 0;
  }

  /// True when this Memory is a copy-on-write fork of a shared image.
  bool is_cow() const { return base_ != nullptr; }

  /// Pages promoted to private frames so far (0 in private mode, where
  /// every page is private by construction but none is *promoted*).
  std::uint64_t promoted_pages() const { return promoted_pages_; }

  /// Bytes of page data this Memory owns privately (excludes the shared
  /// image and the per-page metadata tables): the whole store in private
  /// mode, promoted frames only in COW mode. The bench's per-session
  /// footprint metric.
  std::uint64_t resident_bytes() const {
    return bytes_.size() + promoted_pages_ * kPageSize;
  }

  /// Rollback (Machine::restore): every page whose version differs from
  /// `versions` gets `image`'s bytes and permissions back, then its version
  /// is bumped — never rolled back — and recorded in `versions`. Pages
  /// whose versions match must already hold the image's contents, i.e.
  /// `versions` is what this Memory's versions were when it last matched
  /// `image`. Returns the number of pages rewritten.
  std::size_t restore_dirty(const MemoryImage& image,
                            std::vector<std::uint32_t>& versions);

  /// Read watch behind Kernel::seed_dependent: arms the 8-byte word at
  /// `addr`. Any later read that overlaps an armed word through read_u8,
  /// read_u64, read_bytes or read_span fires the watch; writes never do.
  /// Two words can be armed at once (the loader plants one canary per
  /// image, and a scenario run maps at most two images); arming a third
  /// fires the watch at once, which can only cost a caller a solo run,
  /// never a wrong result.
  void watch_word(std::uint64_t addr);
  /// Disarms every word and clears watch_fired().
  void clear_watch();
  bool watch_fired() const { return watch_fired_; }

 private:
  /// An unarmed watch slot: `last - slot` wraps past every read's window.
  static constexpr std::uint64_t kNoWatch = 1ull << 63;

  /// One subtract-and-compare per armed slot. A read [addr, addr+len)
  /// overlaps the word [w, w+8) iff its last byte lies in [w, w+len+7).
  void note_read(std::uint64_t addr, std::uint64_t len) const {
    const std::uint64_t last = addr + len - 1;
    if (last - watch_[0] < len + 7 || last - watch_[1] < len + 7)
        [[unlikely]] {
      watch_fired_ = true;
      watch_ = {kNoWatch, kNoWatch};  // fired for this run: stop checking
    }
  }

  void bump_versions(std::uint64_t addr, std::uint64_t len) {
    if (len == 0) return;  // addr + len - 1 would underflow at addr == 0
    const std::uint64_t first = addr / kPageSize;
    const std::uint64_t last = (addr + len - 1) / kPageSize;
    for (std::uint64_t p = first; p <= last; ++p) ++versions_[p];
  }

  /// COW promotion: copies the shared frame into a fresh private frame and
  /// repoints both table entries. Only reachable in COW mode (private-mode
  /// write_frames_ entries are never null).
  std::uint8_t* promote(std::uint64_t page);

  /// Writable frame for `page`, promoting on first COW write. Does NOT bump
  /// the version; callers bump exactly as the pre-COW store did.
  std::uint8_t* frame_for_write(std::uint64_t page) {
    std::uint8_t* f = write_frames_[page];
    return f != nullptr ? f : promote(page);
  }

  std::uint64_t size_ = 0;
  std::vector<std::uint8_t> bytes_;  // private-mode flat store (else empty)
  std::shared_ptr<const MemoryImage> base_;  // COW baseline (else null)
  // Promoted private frames; a deque never relocates existing elements, so
  // the frame-table pointers stay valid as promotions accumulate.
  std::deque<std::array<std::uint8_t, kPageSize>> private_frames_;
  std::uint64_t promoted_pages_ = 0;
  // Per-page frame tables — the one representation both modes share. A null
  // write_frames_ entry means "shared, promote on first write".
  std::vector<const std::uint8_t*> read_frames_;
  std::vector<std::uint8_t*> write_frames_;
  std::vector<std::uint8_t> perms_;      // one Perm byte per page
  std::vector<std::uint32_t> versions_;  // one content version per page
  // Scratch for read_span calls that cross non-adjacent frames.
  mutable std::vector<std::uint8_t> span_scratch_;
  // Armed words of the read watch; reads are const, so firing is too.
  mutable std::array<std::uint64_t, 2> watch_{kNoWatch, kNoWatch};
  mutable bool watch_fired_ = false;
};

/// Immutable frozen copy of one Memory's full state, shared (refcounted)
/// between any number of concurrent forks. Sparse: pristine pages alias a
/// single static zero page instead of owning storage.
class MemoryImage {
 public:
  MemoryImage() = default;
  MemoryImage(const MemoryImage&) = delete;
  MemoryImage& operator=(const MemoryImage&) = delete;

  std::uint64_t size() const { return size_; }
  std::uint64_t page_count() const { return frames_.size(); }
  /// Pages that own storage (were non-pristine at freeze time).
  std::uint64_t stored_page_count() const { return storage_.size(); }
  /// Per-page content versions at freeze time (a fork starts from these).
  const std::vector<std::uint32_t>& versions() const { return versions_; }

 private:
  friend class Memory;

  std::uint64_t size_ = 0;
  std::vector<const std::uint8_t*> frames_;  // per page; zero page or storage_
  std::deque<std::array<std::uint8_t, Memory::kPageSize>> storage_;
  std::vector<std::uint8_t> perms_;
  std::vector<std::uint32_t> versions_;
};

}  // namespace crs::sim
