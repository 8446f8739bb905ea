// PUP (Pack/UnPack) serialization framework.
//
// This mirrors the Charm++ PUP framework the paper builds on (§4.1):
// application types expose a single `pup()` traversal that is reused for
//   * sizing      — computing the checkpoint byte count,
//   * packing     — producing a local checkpoint,
//   * unpacking   — restoring state on restart, and
//   * checking    — comparing a local checkpoint against the remote copy
//                   received from the buddy node to detect silent data
//                   corruption (the `PUPer::checker` of the paper).
//
// The stream is self-describing: every field is emitted as a tagged record
// (tag, element count, payload). This is what lets the checker compare two
// checkpoints *without* the live object, honour per-field floating point
// tolerances, and skip fields the application marked replica-variant.
//
// Chunk-stable boundaries (the invariant the ckpt codec leans on): the
// packed stream is a pure function of the traversed values — no timestamps,
// addresses, map iteration hashes, padding garbage or alignment skips ever
// reach the buffer, and record framing depends only on field types and
// container sizes. Hence if an application mutates only part of its state
// between epochs, every byte *before* the first changed field and every
// byte *after* the last changed field (given unchanged container sizes) is
// bit-identical across the two packs, at the same offsets. The codec's
// 256 KiB chunk grid (checksum::kDigestChunk) exploits this: untouched
// regions produce digest-identical chunks that incremental checkpoints
// drop from the wire. Growing or shrinking a container shifts every later
// offset — such epochs simply ship more chunks; correctness never depends
// on stability, only the delta hit rate does.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "buf/buffer.h"
#include "common/require.h"

namespace acr::pup {

/// Record tags embedded in the checkpoint stream.
enum class Tag : std::uint8_t {
  Bytes = 0,
  I8, U8, I16, U16, I32, U32, I64, U64,
  F32, F64,
  Size,         ///< container element count (u64); framework structure, not
                ///< flippable user data — corrupting it would make the
                ///< stream unrestorable rather than model an SDC
  OptionsPush,  ///< payload: CompareOptions
  OptionsPop,   ///< no payload
};

const char* tag_name(Tag t);

/// Per-field comparison behaviour, scoped with push/pop (nestable).
struct CompareOptions {
  /// Field is replica-variant (timers, pointers-as-ids): never compared.
  bool ignore = false;
  /// Relative tolerance for F32/F64 payloads (0 = bitwise).
  double rel_tol = 0.0;
  /// Absolute tolerance for F32/F64 payloads (0 = bitwise).
  double abs_tol = 0.0;
};

enum class Mode { Sizing, Packing, Unpacking };

/// Base serializer. User code writes one traversal:
///
///   struct Particle {
///     double x, y, z;
///     void pup(acr::pup::Puper& p) { p | x; p | y; p | z; }
///   };
///
/// and every PUP mode reuses it.
class Puper {
 public:
  virtual ~Puper() = default;

  Mode mode() const { return mode_; }
  bool is_unpacking() const { return mode_ == Mode::Unpacking; }

  /// Raw byte blob (no endianness/type interpretation in the checker).
  void raw_bytes(void* data, std::size_t n) { record(Tag::Bytes, data, n, 1); }

  /// Typed array of a fundamental type.
  template <typename T>
  void array(T* data, std::size_t count) {
    static_assert(std::is_arithmetic_v<T>, "array() is for arithmetic types");
    record(tag_of<T>(), data, count, sizeof(T));
  }

  template <typename T>
  void value(T& v) {
    array(&v, 1);
  }

  /// Container element count. Distinct from value() so the checker and the
  /// fault injector can tell structure apart from user data.
  void size_value(std::uint64_t& n) { record(Tag::Size, &n, 1, sizeof n); }

  /// Scope comparison options over the fields pupped until pop_options().
  void push_options(const CompareOptions& opts) {
    CompareOptions copy = opts;
    record(Tag::OptionsPush, &copy, 1, sizeof(CompareOptions));
  }
  void pop_options() { record(Tag::OptionsPop, nullptr, 0, 0); }

  template <typename T>
  static constexpr Tag tag_of() {
    if constexpr (std::is_same_v<T, float>) return Tag::F32;
    else if constexpr (std::is_same_v<T, double>) return Tag::F64;
    else if constexpr (std::is_same_v<T, bool>) return Tag::U8;
    else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      switch (sizeof(T)) {
        case 1: return Tag::I8;
        case 2: return Tag::I16;
        case 4: return Tag::I32;
        default: return Tag::I64;
      }
    } else {
      switch (sizeof(T)) {
        case 1: return Tag::U8;
        case 2: return Tag::U16;
        case 4: return Tag::U32;
        default: return Tag::U64;
      }
    }
  }

 protected:
  explicit Puper(Mode mode) : mode_(mode) {}

  /// One stream record: header (tag, element count) + payload of
  /// count*elem_size bytes. Implementations size, write, or read it.
  virtual void record(Tag tag, void* data, std::size_t count,
                      std::size_t elem_size) = 0;

 private:
  Mode mode_;
};

// ---------------------------------------------------------------------------
// pup dispatch: member pup(), free pup() via ADL, arithmetic, containers.
// ---------------------------------------------------------------------------

template <typename T>
concept HasMemberPup = requires(T& t, Puper& p) { t.pup(p); };

template <typename T>
  requires std::is_arithmetic_v<T>
inline void pup_value(Puper& p, T& v) {
  p.value(v);
}

template <typename T>
  requires std::is_enum_v<T>
inline void pup_value(Puper& p, T& v) {
  auto u = static_cast<std::underlying_type_t<T>>(v);
  p.value(u);
  v = static_cast<T>(u);
}

template <HasMemberPup T>
inline void pup_value(Puper& p, T& v) {
  v.pup(p);
}

inline void pup_value(Puper& p, std::string& s) {
  std::uint64_t n = s.size();
  p.size_value(n);
  if (p.is_unpacking()) s.resize(n);
  if (n > 0) p.array(s.data(), static_cast<std::size_t>(n));
}

template <typename T>
inline void pup_value(Puper& p, std::vector<T>& v) {
  std::uint64_t n = v.size();
  p.size_value(n);
  if (p.is_unpacking()) v.resize(n);
  if constexpr (std::is_arithmetic_v<T>) {
    if (n > 0) p.array(v.data(), static_cast<std::size_t>(n));
  } else {
    for (auto& e : v) pup_value(p, e);
  }
}

template <typename T, std::size_t N>
inline void pup_value(Puper& p, std::array<T, N>& a) {
  if constexpr (std::is_arithmetic_v<T>) {
    p.array(a.data(), N);
  } else {
    for (auto& e : a) pup_value(p, e);
  }
}

template <typename A, typename B>
inline void pup_value(Puper& p, std::pair<A, B>& pr) {
  pup_value(p, pr.first);
  pup_value(p, pr.second);
}

template <typename K, typename V>
inline void pup_value(Puper& p, std::map<K, V>& m) {
  std::uint64_t n = m.size();
  p.size_value(n);
  if (p.is_unpacking()) {
    m.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
      K k{};
      V v{};
      pup_value(p, k);
      pup_value(p, v);
      m.emplace(std::move(k), std::move(v));
    }
  } else {
    for (auto& [k, v] : m) {
      K key = k;  // keys are const in the map; copy for the traversal
      pup_value(p, key);
      pup_value(p, v);
    }
  }
}

/// Charm++-style `p | x` spelling.
template <typename T>
inline Puper& operator|(Puper& p, T& v) {
  pup_value(p, v);
  return p;
}

// ---------------------------------------------------------------------------
// Concrete PUPers.
// ---------------------------------------------------------------------------

/// Computes the exact byte size of the stream a Packer would produce.
class Sizer final : public Puper {
 public:
  Sizer() : Puper(Mode::Sizing) {}
  std::size_t size() const { return size_; }

 protected:
  void record(Tag tag, void* data, std::size_t count,
              std::size_t elem_size) override;

 private:
  std::size_t size_ = 0;
};

/// Serialized checkpoint image over shared immutable storage. Copying a
/// Checkpoint (double-buffer promotion, restore staging, buddy transfer)
/// shares the bytes instead of duplicating them.
class Checkpoint {
 public:
  Checkpoint() = default;
  explicit Checkpoint(buf::Buffer data) : data_(std::move(data)) {}
  explicit Checkpoint(std::vector<std::byte> data)
      : data_(buf::Buffer::wrap(std::move(data))) {}

  std::span<const std::byte> bytes() const { return data_.bytes(); }
  /// Copy-on-write mutable view (detaches from shared storage first); the
  /// door the SDC fault injector flips bits through.
  std::span<std::byte> mutable_bytes() { return data_.mutable_bytes(); }
  const buf::Buffer& buffer() const { return data_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

 private:
  buf::Buffer data_;
};

/// Writes the stream into a BufferBuilder, optionally teeing every byte
/// into a second Sink (e.g. a streaming checksum) so digesting happens in
/// the same traversal as packing.
class Packer final : public Puper {
 public:
  /// Self-contained: packs into a private builder (fresh arena).
  Packer() : Puper(Mode::Packing), out_(&own_) {}
  /// Packs into an external builder, enabling arena reuse across epochs.
  explicit Packer(buf::BufferBuilder& out) : Puper(Mode::Packing), out_(&out) {}

  /// Also stream every packed byte into `sink` (nullptr detaches).
  void tee(buf::Sink* sink) { tee_ = sink; }

  Checkpoint take() { return Checkpoint(out_->take()); }
  buf::Buffer take_buffer() { return out_->take(); }
  std::size_t bytes_written() const { return out_->size(); }

 protected:
  void record(Tag tag, void* data, std::size_t count,
              std::size_t elem_size) override;

 private:
  buf::BufferBuilder own_;
  buf::BufferBuilder* out_;
  buf::Sink* tee_ = nullptr;
};

/// Reads the stream back into live objects, validating record headers.
/// A header mismatch throws StreamError (corrupt or mismatched stream).
class StreamError : public std::runtime_error {
 public:
  explicit StreamError(const std::string& what) : std::runtime_error(what) {}
};

class Unpacker final : public Puper {
 public:
  explicit Unpacker(std::span<const std::byte> in)
      : Puper(Mode::Unpacking), in_(in) {}
  explicit Unpacker(const Checkpoint& c) : Unpacker(c.bytes()) {}
  /// The Unpacker only references the checkpoint's bytes; binding it to a
  /// temporary would dangle.
  explicit Unpacker(Checkpoint&&) = delete;

  /// True once every byte of the stream has been consumed.
  bool exhausted() const { return pos_ == in_.size(); }

 protected:
  void record(Tag tag, void* data, std::size_t count,
              std::size_t elem_size) override;

 private:
  void read(void* dst, std::size_t n);

  std::span<const std::byte> in_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Convenience entry points.
// ---------------------------------------------------------------------------

/// Size of the checkpoint `obj` would produce.
template <typename T>
std::size_t checkpoint_size(T& obj) {
  Sizer s;
  s | obj;
  return s.size();
}

/// Serialize `obj` into a fresh checkpoint.
template <typename T>
Checkpoint make_checkpoint(T& obj) {
  Packer p;
  p | obj;
  return p.take();
}

/// Restore `obj` from `c`. Throws StreamError on malformed input.
template <typename T>
void restore_checkpoint(T& obj, const Checkpoint& c) {
  Unpacker u(c);
  u | obj;
  ACR_REQUIRE(u.exhausted(), "checkpoint has trailing bytes after restore");
}

}  // namespace acr::pup
