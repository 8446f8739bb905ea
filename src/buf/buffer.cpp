#include "buf/buffer.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace acr::buf {

Buffer Buffer::copy_of(std::span<const std::byte> bytes) {
  if (bytes.empty()) return Buffer();
  auto storage = std::make_shared<Storage>(bytes.size());
  std::memcpy(storage->data(), bytes.data(), bytes.size());
  std::size_t len = storage->size();
  return Buffer(std::move(storage), 0, len);
}

Buffer Buffer::wrap(std::vector<std::byte> bytes) {
  if (bytes.empty()) return Buffer();
  auto storage = std::make_shared<Storage>(std::move(bytes));
  std::size_t len = storage->size();
  return Buffer(std::move(storage), 0, len);
}

bool Buffer::content_equals(const Buffer& other) const {
  if (len_ != other.len_) return false;
  if (len_ == 0) return true;
  if (storage_ == other.storage_ && offset_ == other.offset_) return true;
  return std::memcmp(data(), other.data(), len_) == 0;
}

Buffer Buffer::slice(std::size_t offset, std::size_t len) const {
  ACR_REQUIRE(offset <= len_ && len <= len_ - offset,
              "buffer slice out of range");
  if (len == 0) return Buffer();
  return Buffer(storage_, offset_ + offset, len);
}

std::span<std::byte> Buffer::mutable_bytes() {
  if (!storage_) return {};
  bool whole = offset_ == 0 && len_ == storage_->size();
  if (storage_.use_count() != 1 || !whole) {
    auto fresh = std::make_shared<Storage>(len_);
    std::memcpy(fresh->data(), data(), len_);
    storage_ = std::move(fresh);
    offset_ = 0;
  } else {
    // Sole owner: write in place, but under a fresh identity (the bytes
    // move, nothing is copied) so no WeakBuffer sees them change.
    storage_ = std::make_shared<Storage>(std::move(*storage_));
  }
  return std::span<std::byte>(storage_->data(), len_);
}

void BufferBuilder::ensure_arena() {
  if (arena_) return;
  // Reclaim a retired arena whose Buffers have all been released: the pool
  // slot is then the storage's only owner. The capacity moves to a fresh
  // identity, so WeakBuffers of the retired bytes expire rather than see
  // them overwritten.
  for (auto& slot : retired_) {
    if (slot && slot.use_count() == 1) {
      arena_ = std::make_shared<Buffer::Storage>(std::move(*slot));
      slot.reset();
      arena_->clear();  // keeps capacity
      ++stats_.arena_reuses;
      return;
    }
  }
  arena_ = std::make_shared<Buffer::Storage>();
  ++stats_.arena_allocations;
}

void BufferBuilder::append(const void* data, std::size_t n) {
  if (n == 0) return;
  ensure_arena();
  const std::byte* p = static_cast<const std::byte*>(data);
  arena_->insert(arena_->end(), p, p + n);
  stats_.bytes_written += n;
}

void BufferBuilder::reserve(std::size_t n) {
  ensure_arena();
  arena_->reserve(n);
}

std::span<std::byte> BufferBuilder::extend(std::size_t n) {
  ensure_arena();
  std::size_t at = arena_->size();
  arena_->resize(at + n);
  stats_.bytes_written += n;
  return std::span<std::byte>(arena_->data() + at, n);
}

Buffer BufferBuilder::take() {
  ++stats_.buffers_taken;
  if (!arena_ || arena_->empty()) return Buffer();
  std::size_t len = arena_->size();
  Buffer out(arena_, 0, len);
  // Park the arena for recycling. Prefer an empty slot, then a slot whose
  // buffers are gone; otherwise drop the builder's claim on the oldest slot
  // (the storage stays alive for as long as its Buffers need it).
  for (auto& slot : retired_) {
    if (!slot) {
      slot = std::move(arena_);
      return out;
    }
  }
  for (auto& slot : retired_) {
    if (slot.use_count() == 1) {
      slot = std::move(arena_);
      return out;
    }
  }
  retired_.front() = std::move(arena_);
  return out;
}

void BufferBuilder::reserve_slice(std::size_t n) {
  if (arena_ && arena_->capacity() - arena_->size() >= n) return;
  arena_ = std::make_shared<Buffer::Storage>();
  arena_->reserve(std::max(n, kSliceArena));
  slice_start_ = 0;
  ++stats_.arena_allocations;
}

Buffer BufferBuilder::take_slice() {
  ++stats_.buffers_taken;
  std::size_t end = arena_ ? arena_->size() : 0;
  std::size_t start = std::exchange(slice_start_, end);
  if (end == start) return Buffer();
  return Buffer(arena_, start, end - start);
}

}  // namespace acr::buf
