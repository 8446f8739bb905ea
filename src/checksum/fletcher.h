// Position-dependent Fletcher checksums (§4.2 "Checksum" optimization).
//
// ACR optionally compares 8-byte Fletcher-64 digests of the checkpoints
// instead of shipping full checkpoints across the replica bisection. The
// sum-of-sums term makes the digest position dependent: swapping two blocks
// of the checkpoint changes it, unlike a plain additive checksum.
//
// The incremental interface exists so the runtime can fold blocks into the
// digest while the serializer is still producing them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace acr::checksum {

/// Fletcher-64 over 32-bit words using modulus 2^32-1.
/// This is the digest ACR transmits (paper: "checksum data size is only
/// 32 bytes" for the whole node; we use one 8-byte digest per checkpoint
/// stream plus per-segment digests when requested).
std::uint64_t fletcher64(std::span<const std::byte> data);

/// Incremental Fletcher-64. Feed blocks in order; digest() equals the
/// one-shot fletcher64 over the concatenation for ANY block granularity —
/// sub-word tails are carried across append() calls in a pending buffer.
/// (The streaming pack sink relies on this: PUP records are 9-byte headers
/// plus arbitrary payloads, so writes are rarely word-aligned.)
class Fletcher64 {
 public:
  void append(std::span<const std::byte> block);
  std::uint64_t digest() const;
  void reset();

  /// Bytes folded in so far.
  std::size_t size() const { return size_; }

 private:
  std::uint64_t sum1_ = 0;
  std::uint64_t sum2_ = 0;
  std::size_t size_ = 0;
  // Up to 3 pending tail bytes while the input is not 4-byte aligned.
  std::uint8_t pending_[4] = {0, 0, 0, 0};
  std::size_t pending_len_ = 0;
};

}  // namespace acr::checksum
