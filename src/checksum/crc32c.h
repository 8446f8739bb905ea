// CRC32-C (Castagnoli) — the comparison point for Fletcher-64 in the §4.2
// checksum trade-off ablation, and the frame-integrity check of the
// reliable transport. CRC detects all burst errors up to 32 bits and has
// better mixing than Fletcher.
//
// The inner loop is hardware-dispatched (kernels.h): SSE4.2 crc32q where
// the CPU has it, a slicing-by-8 table loop otherwise. Both compute the
// same polynomial, so every digest is bit-identical across machines and
// ACR_KERNEL_IMPL choices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace acr::checksum {

/// One-shot CRC32-C of a buffer.
std::uint32_t crc32c(std::span<const std::byte> data);

/// digest(A ++ B) from digest(A), digest(B) and |B| — the GF(2)
/// shift-matrix combine (zlib's crc32_combine, Castagnoli polynomial).
/// Lets a buffer be digested as independent chunks and merged; O(log len_b)
/// 32x32 bit-matrix products, no data access.
std::uint32_t crc32c_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                             std::uint64_t len_b);

/// XOR-difference between the CRC32C of an len-byte message and that of the
/// same message with one bit flipped at (byte_index, bit_index). The
/// conditioned CRC is affine in the message bits, so
///   crc32c(m ^ e) == crc32c(m) ^ crc32c_flip_delta(len, byte, bit)
/// — no access to the message bytes, O(log tail) matrix products. Always
/// nonzero: a CRC detects every single-bit error.
std::uint32_t crc32c_flip_delta(std::uint64_t len, std::uint64_t byte_index,
                                int bit_index);

/// Incremental interface (byte-granular; any block sizes compose).
class Crc32c {
 public:
  void append(std::span<const std::byte> block);
  std::uint32_t digest() const { return state_ ^ 0xFFFFFFFFu; }
  void reset() { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace acr::checksum
