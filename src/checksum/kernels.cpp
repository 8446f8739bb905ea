#include "checksum/kernels.h"

#include <atomic>
#include <array>
#include <bit>
#include <cstdlib>

#include "checksum/crc32c.h"
#include "checksum/gf256.h"
#include "common/require.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#define ACR_HAVE_SSE42_KERNEL 1
#else
#define ACR_HAVE_SSE42_KERNEL 0
#endif

namespace acr::checksum {

namespace {

// ---------------------------------------------------------------------------
// Portable kernel: slicing-by-8.
//
// The classic one-table loop retires one byte per table lookup with a
// serial dependency on `crc` between bytes. Slicing-by-8 processes eight
// input bytes per iteration through eight precomputed tables whose lookups
// are independent (the xor tree reassociates), which breaks the dependency
// chain and runs ~4-5x faster on the same hardware.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kPoly = 0x82F63B78u;  // Castagnoli, reflected

struct SliceTables {
  std::uint32_t t[8][256];
};

constexpr SliceTables make_slice_tables() {
  SliceTables tb{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit)
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    tb.t[0][i] = crc;
  }
  // t[k][i] = crc of byte i followed by k zero bytes.
  for (int k = 1; k < 8; ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      tb.t[k][i] = (tb.t[k - 1][i] >> 8) ^ tb.t[0][tb.t[k - 1][i] & 0xFFu];
  return tb;
}

constexpr SliceTables kSlice = make_slice_tables();

}  // namespace

namespace kernels {

std::uint32_t crc32c_update_portable(std::uint32_t crc,
                                     std::span<const std::byte> data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t len = data.size();
  // The 8-byte inner loop reads the input as two little-endian uint32
  // words; on a big-endian target fall back to the byte loop below.
  if constexpr (std::endian::native == std::endian::little) {
    while (len >= 8) {
      std::uint32_t lo, hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= crc;
      crc = kSlice.t[7][lo & 0xFFu] ^ kSlice.t[6][(lo >> 8) & 0xFFu] ^
            kSlice.t[5][(lo >> 16) & 0xFFu] ^ kSlice.t[4][lo >> 24] ^
            kSlice.t[3][hi & 0xFFu] ^ kSlice.t[2][(hi >> 8) & 0xFFu] ^
            kSlice.t[1][(hi >> 16) & 0xFFu] ^ kSlice.t[0][hi >> 24];
      p += 8;
      len -= 8;
    }
  }
  while (len-- > 0)
    crc = (crc >> 8) ^ kSlice.t[0][(crc ^ *p++) & 0xFFu];
  return crc;
}

#if ACR_HAVE_SSE42_KERNEL
__attribute__((target("sse4.2"))) std::uint32_t crc32c_update_hw(
    std::uint32_t crc, std::span<const std::byte> data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t len = data.size();
  // Head bytes up to 8-byte alignment, then one crc32q per 8 bytes.
  while (len > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --len;
  }
  std::uint64_t c = crc;
  while (len >= 8) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);
    c = _mm_crc32_u64(c, w);
    p += 8;
    len -= 8;
  }
  crc = static_cast<std::uint32_t>(c);
  while (len-- > 0) crc = _mm_crc32_u8(crc, *p++);
  return crc;
}
#else
std::uint32_t crc32c_update_hw(std::uint32_t, std::span<const std::byte>) {
  ACR_REQUIRE(false, "SSE4.2 CRC32C kernel not available in this build");
}
#endif

}  // namespace kernels

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

namespace {

using UpdateFn = std::uint32_t (*)(std::uint32_t, std::span<const std::byte>);

std::atomic<KernelImpl> g_requested{KernelImpl::Auto};
std::atomic<UpdateFn> g_update{nullptr};

KernelImpl env_impl() {
  const char* e = std::getenv("ACR_KERNEL_IMPL");
  if (e == nullptr) return KernelImpl::Auto;
  if (std::strcmp(e, "portable") == 0) return KernelImpl::Portable;
  if (std::strcmp(e, "hw") == 0) return KernelImpl::Hw;
  return KernelImpl::Auto;
}

UpdateFn resolve(KernelImpl impl) {
  switch (impl) {
    case KernelImpl::Portable:
      return &kernels::crc32c_update_portable;
    case KernelImpl::Hw:
      ACR_REQUIRE(hw_kernels_available(),
                  "hw kernels requested but SSE4.2 is not available");
      return &kernels::crc32c_update_hw;
    case KernelImpl::Auto:
      return hw_kernels_available() ? &kernels::crc32c_update_hw
                                    : &kernels::crc32c_update_portable;
  }
  return &kernels::crc32c_update_portable;
}

UpdateFn update_fn() {
  UpdateFn f = g_update.load(std::memory_order_acquire);
  if (f == nullptr) {
    // First use: honor the environment override, else auto-detect.
    set_kernel_impl(env_impl());
    f = g_update.load(std::memory_order_acquire);
  }
  return f;
}

}  // namespace

bool hw_kernels_available() {
#if ACR_HAVE_SSE42_KERNEL
  return __builtin_cpu_supports("sse4.2") != 0;
#else
  return false;
#endif
}

void set_kernel_impl(KernelImpl impl) {
  g_requested.store(impl, std::memory_order_relaxed);
  g_update.store(resolve(impl), std::memory_order_release);
  // The GF(256) erasure-code row kernel follows the same policy.
  kernels::detail::gf256_set_row_impl(impl);
}

KernelImpl kernel_impl() {
  return g_requested.load(std::memory_order_relaxed);
}

const char* active_crc32c_kernel() {
  return update_fn() == &kernels::crc32c_update_hw ? "hw" : "portable";
}

namespace kernels {

std::uint32_t crc32c_update(std::uint32_t state,
                            std::span<const std::byte> data) {
  return update_fn()(state, data);
}

}  // namespace kernels

// ---------------------------------------------------------------------------
// The chunk grid.
// ---------------------------------------------------------------------------

std::vector<std::uint32_t> crc32c_chunk_digests(
    std::span<const std::byte> data) {
  std::vector<std::uint32_t> part(digest_chunk_count(data.size()));
  for (std::size_t i = 0; i < part.size(); ++i) {
    auto [begin, end] = digest_chunk_range(data.size(), i);
    part[i] = crc32c(data.subspan(begin, end - begin));
  }
  return part;
}

std::uint32_t crc32c_merge_chunk_digests(std::span<const std::uint32_t> digests,
                                         std::size_t total_len) {
  ACR_REQUIRE(digests.size() == digest_chunk_count(total_len),
              "chunk-digest merge: vector does not match the chunk grid");
  if (digests.empty()) return crc32c({});
  std::uint32_t acc = digests[0];
  for (std::size_t i = 1; i < digests.size(); ++i) {
    auto [begin, end] = digest_chunk_range(total_len, i);
    acc = crc32c_combine(acc, digests[i], end - begin);
  }
  return acc;
}

}  // namespace acr::checksum
