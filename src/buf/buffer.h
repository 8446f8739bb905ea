// Shared immutable byte buffers for the checkpoint / message data path.
//
// The checkpoint story of the paper (§2.1) only works if moving checkpoint
// bytes around is cheap: a node packs its state once per epoch, ships the
// image (or its digest) to its buddy, keeps two epochs in memory, and may
// re-ship a verified image during recovery. All of those are *reads* of the
// same bytes. `Buffer` makes every hop a reference-count bump instead of a
// copy:
//
//   * Buffer        — immutable view into ref-counted storage; copying a
//                     Buffer or taking a slice() shares the storage.
//   * BufferBuilder — the single place bytes are produced. Growable arena;
//                     take() seals the arena into a Buffer. Retired arenas
//                     are recycled once every Buffer viewing them is gone,
//                     so a steady-state checkpoint epoch allocates nothing.
//   * Sink          — minimal byte-stream consumer. The PUP Packer writes
//                     through it, which lets a checksum sink fold the buddy
//                     digest while the serializer produces the stream (one
//                     traversal instead of pack-then-checksum, §4.2).
//
//   * WeakBuffer    — non-owning view of a Buffer's window: it never keeps
//                     the storage alive, and lock() yields the bytes only
//                     while some owner still holds them.
//
// Ownership rules: storage is immutable once a Buffer exists over it. The
// only mutation door is Buffer::mutable_bytes(), which detaches into a
// private copy when the storage is shared (copy-on-write) — used by the
// fault injector to flip bits without corrupting other views. Bytes never
// change under a live storage identity: an in-place write and an arena
// recycle both move the bytes to a fresh identity first, so every
// WeakBuffer of the old bytes expires instead of seeing them change.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/require.h"

namespace acr::buf {

/// Minimal byte-stream consumer. Implementations: BufferBuilder (collects
/// bytes), checksum sinks (fold a digest), tees (both at once).
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void write(std::span<const std::byte> bytes) = 0;
};

class BufferBuilder;

/// Immutable, cheaply copyable, cheaply sliceable view of shared bytes.
class Buffer {
 public:
  Buffer() = default;

  /// Allocate fresh storage holding a copy of `bytes`.
  static Buffer copy_of(std::span<const std::byte> bytes);

  /// Adopt an existing vector without copying its contents.
  static Buffer wrap(std::vector<std::byte> bytes);

  std::span<const std::byte> bytes() const {
    return storage_ ? std::span<const std::byte>(storage_->data() + offset_,
                                                 len_)
                    : std::span<const std::byte>();
  }
  const std::byte* data() const {
    return storage_ ? storage_->data() + offset_ : nullptr;
  }
  std::size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  /// Sub-view sharing the same storage. O(1), no copy.
  Buffer slice(std::size_t offset, std::size_t len) const;

  /// True when both buffers view the same underlying storage (regardless of
  /// the window each one sees).
  bool aliases(const Buffer& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

  /// Bytewise equality of the viewed windows. O(1) when both views cover
  /// the same window of the same storage (the codec's zero-copy full
  /// frames), O(n) otherwise.
  bool content_equals(const Buffer& other) const;

  /// Number of shared_ptr owners of the storage: live Buffers plus at most
  /// one BufferBuilder retired-arena slot. 0 for an empty buffer. Exposed
  /// for tests and allocation accounting ("was this broadcast zero-copy?").
  long owners() const { return storage_ ? storage_.use_count() : 0; }

  /// Copy-on-write escape hatch: a mutable span over this buffer's bytes.
  /// If the storage is shared (or this view is a slice of a larger arena),
  /// the buffer first detaches into a private full-size copy, so writes
  /// never reach other views. Used by the SDC fault injector.
  std::span<std::byte> mutable_bytes();

 private:
  friend class BufferBuilder;
  friend class WeakBuffer;
  using Storage = std::vector<std::byte>;

  Buffer(std::shared_ptr<Storage> storage, std::size_t offset,
         std::size_t len)
      : storage_(std::move(storage)), offset_(offset), len_(len) {}

  std::shared_ptr<Storage> storage_;
  std::size_t offset_ = 0;
  std::size_t len_ = 0;
};

/// Non-owning view of a Buffer's window. Holding one never keeps the
/// storage alive (Buffer::owners() does not count it); lock() returns an
/// owning Buffer over exactly the viewed bytes while they still exist, and
/// an empty Buffer once every owner has let go.
class WeakBuffer {
 public:
  WeakBuffer() = default;
  explicit WeakBuffer(const Buffer& b)
      : storage_(b.storage_), offset_(b.offset_), len_(b.len_) {}

  bool expired() const { return storage_.expired(); }
  Buffer lock() const {
    std::shared_ptr<Buffer::Storage> s = storage_.lock();
    return s ? Buffer(std::move(s), offset_, len_) : Buffer();
  }

 private:
  std::weak_ptr<Buffer::Storage> storage_;
  std::size_t offset_ = 0;
  std::size_t len_ = 0;
};

/// Growable byte arena that seals into Buffers and recycles retired arenas.
///
/// Lifecycle: write()/append() grow the current arena; take() seals it into
/// a Buffer and parks the storage in a small retired pool. The next build
/// reclaims a retired arena whose Buffers have all been dropped (capacity
/// and all — no allocation), or allocates a fresh one. With ACR's double
/// in-memory checkpoint store (verified + candidate), a pool of a few slots
/// makes steady-state epochs allocation-free.
class BufferBuilder final : public Sink {
 public:
  struct Stats {
    std::uint64_t arena_allocations = 0;  ///< fresh arenas allocated
    std::uint64_t arena_reuses = 0;       ///< retired arenas recycled
    std::uint64_t buffers_taken = 0;      ///< take() calls
    std::uint64_t bytes_written = 0;      ///< total bytes appended
  };

  BufferBuilder() = default;

  // The retired pool must not be shared by accident; builders are cheap to
  // create where needed.
  BufferBuilder(const BufferBuilder&) = delete;
  BufferBuilder& operator=(const BufferBuilder&) = delete;

  // --- Sink ------------------------------------------------------------------
  void write(std::span<const std::byte> bytes) override {
    append(bytes.data(), bytes.size());
  }

  void append(const void* data, std::size_t n);
  void reserve(std::size_t n);
  /// Append `n` zero bytes and return them for the caller to fill in place
  /// (a decoder writing straight into the arena).
  std::span<std::byte> extend(std::size_t n);

  /// Bytes written into the arena currently being built.
  std::size_t size() const { return arena_ ? arena_->size() : 0; }

  /// Seal the current arena into an immutable Buffer and retire it. The
  /// builder is then empty and ready for the next build.
  Buffer take();

  /// Discard the bytes of the current build but keep its arena (capacity).
  void clear() {
    if (arena_) arena_->clear();
  }

  // --- slice mode: many small Buffers packed densely into shared arenas ----
  // Do not mix with take() on one builder.

  /// Make room for an `n`-byte build behind the slices already taken from
  /// the current arena; an arena without that room is left to its slices
  /// and a fresh one (at least kSliceArena bytes) becomes current.
  void reserve_slice(std::size_t n);
  /// Seal the bytes written since the previous slice into a Buffer that
  /// shares the current arena. The arena is freed with its last slice; it
  /// is never recycled, so its bytes never change under a live slice.
  Buffer take_slice();

  const Stats& stats() const { return stats_; }

 private:
  void ensure_arena();

  static constexpr std::size_t kRetiredSlots = 4;
  static constexpr std::size_t kSliceArena = 4096;

  std::shared_ptr<Buffer::Storage> arena_;
  std::size_t slice_start_ = 0;  ///< slice mode: end of the last slice
  std::array<std::shared_ptr<Buffer::Storage>, kRetiredSlots> retired_;
  Stats stats_;
};

/// Sink fan-out: forwards every write to two downstream sinks. Lets the
/// Packer fill a BufferBuilder and fold a checksum in the same traversal.
class TeeSink final : public Sink {
 public:
  TeeSink(Sink& a, Sink& b) : a_(a), b_(b) {}
  void write(std::span<const std::byte> bytes) override {
    a_.write(bytes);
    b_.write(bytes);
  }

 private:
  Sink& a_;
  Sink& b_;
};

}  // namespace acr::buf
