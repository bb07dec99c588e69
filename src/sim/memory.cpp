#include "sim/memory.hpp"

#include <algorithm>
#include <cstring>

#include "support/error.hpp"

namespace crs::sim {

namespace {

/// The one frame every pristine page of every Memory and image aliases.
/// Never written (pages promote before their first write), so sharing it
/// across memories, images and threads is safe.
const std::uint8_t* zero_page() {
  static const std::array<std::uint8_t, Memory::kPageSize> zeros{};
  return zeros.data();
}

}  // namespace

Memory::Memory(std::uint64_t size_bytes) {
  CRS_ENSURE(size_bytes > 0, "memory size must be positive");
  const std::uint64_t pages = (size_bytes + kPageSize - 1) / kPageSize;
  size_ = pages * kPageSize;
  read_frames_.assign(pages, zero_page());
  write_frames_.assign(pages, nullptr);
  perms_.resize(pages, kPermNone);
  versions_.resize(pages, 1);
}

Memory::Memory(std::shared_ptr<const MemoryImage> image)
    : base_(std::move(image)) {
  CRS_ENSURE(base_ != nullptr, "fork from a null MemoryImage");
  size_ = base_->size_;
  read_frames_ = base_->frames_;
  write_frames_.assign(base_->frames_.size(), nullptr);
  perms_ = base_->perms_;
  versions_ = base_->versions_;
}

std::shared_ptr<const MemoryImage> Memory::freeze() const {
  auto img = std::make_shared<MemoryImage>();
  img->size_ = size_;
  img->perms_ = perms_;
  img->versions_ = versions_;
  img->frames_.resize(page_count());
  for (std::uint64_t p = 0; p < page_count(); ++p) {
    // Version 1 means byte-for-byte pristine (zeroed, kPermNone): alias the
    // shared zero page instead of storing 4 KiB of zeros.
    if (versions_[p] == 1) {
      img->frames_[p] = zero_page();
      continue;
    }
    img->storage_.emplace_back();
    std::memcpy(img->storage_.back().data(), read_frames_[p], kPageSize);
    img->frames_[p] = img->storage_.back().data();
  }
  return img;
}

std::uint8_t* Memory::promote(std::uint64_t page) {
  private_frames_.emplace_back();
  std::uint8_t* frame = private_frames_.back().data();
  std::memcpy(frame, read_frames_[page], kPageSize);
  read_frames_[page] = frame;
  write_frames_[page] = frame;
  ++promoted_pages_;
  return frame;
}

std::size_t Memory::restore_dirty(const MemoryImage& image,
                                  std::vector<std::uint32_t>& versions) {
  CRS_ENSURE(image.page_count() == page_count() &&
                 versions.size() == page_count(),
             "restore from a differently-sized machine");
  std::size_t restored = 0;
  for (std::uint64_t p = 0; p < page_count(); ++p) {
    if (versions_[p] == versions[p]) continue;  // clean page
    // A restore is a write: frame_for_write promotes shared pages.
    std::memcpy(frame_for_write(p), image.frames_[p], kPageSize);
    perms_[p] = image.perms_[p];
    // Bump — never roll back (see sim/snapshot.hpp): no decode-cache slot
    // or translated block from the overwritten bytes can match the page.
    versions[p] = ++versions_[p];
    ++restored;
  }
  return restored;
}

void Memory::watch_word(std::uint64_t addr) {
  if (watch_fired_) return;  // this run already counts as read
  for (std::uint64_t& slot : watch_) {
    if (slot == kNoWatch) {
      slot = addr;
      return;
    }
  }
  watch_fired_ = true;  // no free slot: count the word as read
  watch_ = {kNoWatch, kNoWatch};
}

void Memory::clear_watch() {
  watch_ = {kNoWatch, kNoWatch};
  watch_fired_ = false;
}

void Memory::set_permissions(std::uint64_t addr, std::uint64_t len,
                             Perm perm) {
  CRS_ENSURE(addr <= size() && len <= size() - addr,
             "set_permissions out of range");
  if (len == 0) return;  // no page overlaps an empty span
  const std::uint64_t first = addr / kPageSize;
  const std::uint64_t last = (addr + len - 1) / kPageSize;
  for (std::uint64_t p = first; p <= last; ++p) {
    perms_[p] = static_cast<std::uint8_t>(perm);
  }
  // Permission changes invalidate derived state too (a page remapped
  // non-executable must not serve stale decoded instructions). No frame
  // promotion: permissions live in per-fork metadata, not in the frames.
  bump_versions(addr, len);
}

Perm Memory::permissions_at(std::uint64_t addr) const {
  if (addr >= size()) return kPermNone;
  return static_cast<Perm>(perms_[addr / kPageSize]);
}

bool Memory::check(std::uint64_t addr, std::uint64_t len,
                   AccessKind kind) const {
  if (len == 0 || addr >= size() || size() - addr < len) return false;
  std::uint8_t needed = 0;
  switch (kind) {
    case AccessKind::kRead:
      needed = kPermRead;
      break;
    case AccessKind::kWrite:
      needed = kPermWrite;
      break;
    case AccessKind::kExecute:
      needed = kPermExec;
      break;
  }
  const std::uint64_t first = addr / kPageSize;
  const std::uint64_t last = (addr + len - 1) / kPageSize;
  for (std::uint64_t p = first; p <= last; ++p) {
    if ((perms_[p] & needed) == 0) return false;
  }
  return true;
}

std::uint8_t Memory::read_u8(std::uint64_t addr) const {
  CRS_ENSURE(addr < size(), "read_u8 out of range");
  note_read(addr, 1);
  return read_frames_[addr / kPageSize][addr % kPageSize];
}

std::uint64_t Memory::read_u64(std::uint64_t addr) const {
  CRS_ENSURE(addr <= size() - 8 && addr + 8 <= size(), "read_u64 out of range");
  note_read(addr, 8);
  const std::uint64_t off = addr % kPageSize;
  std::uint64_t v = 0;
  if (off + 8 <= kPageSize) {
    const std::uint8_t* f = read_frames_[addr / kPageSize] + off;
    for (int i = 7; i >= 0; --i) v = (v << 8) | f[i];
    return v;
  }
  for (int i = 7; i >= 0; --i) {
    const std::uint64_t a = addr + static_cast<std::uint64_t>(i);
    v = (v << 8) | read_frames_[a / kPageSize][a % kPageSize];
  }
  return v;
}

void Memory::write_u8(std::uint64_t addr, std::uint8_t value) {
  CRS_ENSURE(addr < size(), "write_u8 out of range");
  const std::uint64_t page = addr / kPageSize;
  frame_for_write(page)[addr % kPageSize] = value;
  ++versions_[page];
}

void Memory::write_u64(std::uint64_t addr, std::uint64_t value) {
  CRS_ENSURE(addr <= size() - 8 && addr + 8 <= size(),
             "write_u64 out of range");
  const std::uint64_t off = addr % kPageSize;
  if (off + 8 <= kPageSize) {
    std::uint8_t* f = frame_for_write(addr / kPageSize) + off;
    for (int i = 0; i < 8; ++i) {
      f[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
  } else {
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t a = addr + static_cast<std::uint64_t>(i);
      frame_for_write(a / kPageSize)[a % kPageSize] =
          static_cast<std::uint8_t>(value >> (8 * i));
    }
  }
  bump_versions(addr, 8);
}

void Memory::write_bytes(std::uint64_t addr,
                         std::span<const std::uint8_t> data) {
  CRS_ENSURE(addr <= size() && data.size() <= size() - addr,
             "write_bytes out of range");
  if (data.empty()) return;
  std::uint64_t cursor = addr;
  std::size_t written = 0;
  while (written < data.size()) {
    const std::uint64_t page = cursor / kPageSize;
    const std::uint64_t off = cursor % kPageSize;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPageSize - off, data.size() - written));
    std::memcpy(frame_for_write(page) + off, data.data() + written, chunk);
    cursor += chunk;
    written += chunk;
  }
  bump_versions(addr, data.size());
}

std::span<const std::uint8_t> Memory::read_span(std::uint64_t addr,
                                                std::uint64_t len) const {
  CRS_ENSURE(addr <= size() && len <= size() - addr, "read_span out of range");
  if (len == 0) return {};
  note_read(addr, len);
  const std::uint64_t first = addr / kPageSize;
  const std::uint64_t last = (addr + len - 1) / kPageSize;
  const std::uint8_t* base = read_frames_[first] + addr % kPageSize;
  bool contiguous = true;
  for (std::uint64_t p = first; p < last; ++p) {
    if (read_frames_[p + 1] != read_frames_[p] + kPageSize) {
      contiguous = false;
      break;
    }
  }
  if (contiguous) return {base, len};
  // The span crosses frames that are not physically adjacent (e.g. a
  // promoted page next to a shared one): assemble a copy. Callers on the
  // fetch fast path consume the span immediately.
  span_scratch_.resize(len);
  std::uint64_t cursor = addr;
  std::size_t copied = 0;
  while (copied < len) {
    const std::uint64_t page = cursor / kPageSize;
    const std::uint64_t off = cursor % kPageSize;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPageSize - off, len - copied));
    std::memcpy(span_scratch_.data() + copied, read_frames_[page] + off,
                chunk);
    cursor += chunk;
    copied += chunk;
  }
  return {span_scratch_.data(), len};
}

std::vector<std::uint8_t> Memory::read_bytes(std::uint64_t addr,
                                             std::uint64_t len) const {
  CRS_ENSURE(addr <= size() && len <= size() - addr, "read_bytes out of range");
  if (len != 0) note_read(addr, len);
  std::vector<std::uint8_t> out(len);
  std::uint64_t cursor = addr;
  std::size_t copied = 0;
  while (copied < len) {
    const std::uint64_t page = cursor / kPageSize;
    const std::uint64_t off = cursor % kPageSize;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kPageSize - off, len - copied));
    std::memcpy(out.data() + copied, read_frames_[page] + off, chunk);
    cursor += chunk;
    copied += chunk;
  }
  return out;
}

}  // namespace crs::sim
