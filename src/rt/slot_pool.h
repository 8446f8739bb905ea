// Index-addressed storage for values that wait on an engine event: the
// engine's handler slab, and the messages and compute continuations the
// cluster parks so that an event closure holds only {owner, slot index}
// and fits std::function's inline buffer (no allocation per schedule).
//
// Storage grows one fixed-size chunk at a time, so growing never moves the
// values already stored and the footprint tracks peak occupancy without a
// vector's doubling. Freed slots are reused last-in first-out, ahead of
// never-used ones, so used() never exceeds the peak number of values held.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace acr::rt {

template <typename T>
class SlotPool {
 public:
  /// Store `value`; returns the slot to take() it back from.
  std::uint32_t put(T&& value) {
    if (free_.empty()) {
      std::size_t base = chunks_.size() * kChunk;
      chunks_.push_back(std::make_unique<T[]>(kChunk));
      for (std::size_t i = kChunk; i-- > 0;)
        free_.push_back(static_cast<std::uint32_t>(base + i));
    }
    std::uint32_t slot = free_.back();
    free_.pop_back();
    if (slot >= used_) used_ = slot + 1;
    (*this)[slot] = std::move(value);
    return slot;
  }

  /// Move the value out and free its slot. Take before using the value:
  /// using it may put() again.
  T take(std::uint32_t slot) {
    T value = std::move((*this)[slot]);
    free_.push_back(slot);
    return value;
  }

  T& operator[](std::size_t slot) {
    return chunks_[slot >> kChunkBits][slot & (kChunk - 1)];
  }
  /// Slots ever handed out; slots below it may be indexed.
  std::size_t used() const { return used_; }

 private:
  static constexpr std::size_t kChunkBits = 8;
  static constexpr std::size_t kChunk = std::size_t{1} << kChunkBits;

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::size_t used_ = 0;
};

}  // namespace acr::rt
