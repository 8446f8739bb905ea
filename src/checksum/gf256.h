// GF(256) arithmetic for the Reed–Solomon redundancy scheme.
//
// The field is GF(2^8) with the primitive polynomial 0x11D
// (x^8 + x^4 + x^3 + x^2 + 1) and generator 2 — the classic Reed–Solomon
// field. Scalar mul/div/inv run on constexpr log/exp tables; the bulk
// kernel gf256_muladd_row (dst[i] ^= coeff * src[i]) is the erasure-code
// analogue of xor_fold_words and is runtime-dispatched exactly like the
// CRC32C kernels: a portable nibble-table loop and an SSSE3 pshufb kernel
// (two 16-entry shuffles per 16 bytes), selected by set_kernel_impl /
// ACR_KERNEL_IMPL / cpuid. Both implementations compute the same field
// algebra, so the choice is invisible to the protocol.
//
// gf256_muladd is the vector form the rs scheme folds parity with: it
// zero-extends the accumulator and runs the row kernel once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "checksum/kernels.h"

namespace acr::checksum {

namespace gf256 {

/// g^e for e in [0, 510) (the doubled exp table; g = 2, poly 0x11D).
std::uint8_t exp(unsigned e);

/// log_g(a). Precondition: a != 0.
std::uint8_t log(std::uint8_t a);

/// Field product a * b.
std::uint8_t mul(std::uint8_t a, std::uint8_t b);

/// Field quotient a / b. Precondition: b != 0.
std::uint8_t div(std::uint8_t a, std::uint8_t b);

/// Multiplicative inverse. Precondition: a != 0.
std::uint8_t inv(std::uint8_t a);

}  // namespace gf256

/// True when this build and CPU can run the SSSE3 pshufb row kernel.
bool gf256_hw_available();

/// Name of the GF(256) row kernel actually running: "hw" or "portable".
const char* active_gf256_kernel();

namespace kernels {

/// dst[i] ^= coeff * src[i] for i in [0, n), through the dispatched
/// implementation. coeff == 0 is a no-op; coeff == 1 degenerates to
/// xor_fold_words. dst and src must not overlap (except dst == src is
/// allowed for coeff where it degenerates, but callers never rely on it).
void gf256_muladd_row(std::byte* dst, const std::byte* src,
                      std::uint8_t coeff, std::size_t n);

/// Portable kernel: two 16-entry low/high nibble product tables, two
/// lookups + xor per byte (always available).
void gf256_muladd_row_portable(std::byte* dst, const std::byte* src,
                               std::uint8_t coeff, std::size_t n);

/// SSSE3 kernel: the same nibble tables applied 16 bytes at a time with
/// _mm_shuffle_epi8. Precondition: gf256_hw_available().
void gf256_muladd_row_hw(std::byte* dst, const std::byte* src,
                         std::uint8_t coeff, std::size_t n);

namespace detail {
/// Called from set_kernel_impl to (re-)resolve the row kernel alongside
/// the CRC32C kernel. Not for direct use.
void gf256_set_row_impl(KernelImpl impl);
}  // namespace detail

}  // namespace kernels

/// acc[i] ^= coeff * add[i], zero-extending acc to add.size().
void gf256_muladd(std::vector<std::byte>& acc, std::span<const std::byte> add,
                  std::uint8_t coeff);

}  // namespace acr::checksum
