#include "checksum/gf256.h"

#include <atomic>

#include "common/require.h"

#if defined(__x86_64__)
#include <tmmintrin.h>
#define ACR_HAVE_SSSE3_KERNEL 1
#else
#define ACR_HAVE_SSSE3_KERNEL 0
#endif

namespace acr::checksum {

namespace {

// ---------------------------------------------------------------------------
// Field tables. Generator 2 over the primitive polynomial 0x11D; the exp
// table is doubled so mul can skip the mod-255 reduction of log sums
// (log a + log b <= 508 < 510).
// ---------------------------------------------------------------------------

constexpr std::uint8_t kGfPolyLow = 0x1D;  // 0x11D with the x^8 bit folded

struct GfTables {
  std::uint8_t exp[510];
  std::uint8_t log[256];
};

constexpr GfTables make_gf_tables() {
  GfTables t{};
  std::uint8_t x = 1;
  for (int i = 0; i < 255; ++i) {
    t.exp[i] = x;
    t.log[x] = static_cast<std::uint8_t>(i);
    // x *= 2 in the field: shift, fold the carry through the polynomial.
    std::uint8_t carry = static_cast<std::uint8_t>(x & 0x80u);
    x = static_cast<std::uint8_t>(x << 1);
    if (carry != 0) x ^= kGfPolyLow;
  }
  for (int i = 255; i < 510; ++i) t.exp[i] = t.exp[i - 255];
  t.log[0] = 0;  // never read; mul/div special-case zero operands
  return t;
}

constexpr GfTables kGf = make_gf_tables();

// Low/high nibble product tables for a fixed coefficient:
// mul(c, b) == lo[b & 0xF] ^ hi[b >> 4], because multiplication by c is
// linear over GF(2) and b = (b & 0xF) ^ (b & 0xF0).
struct NibbleTables {
  std::uint8_t lo[16];
  std::uint8_t hi[16];
};

NibbleTables make_nibble_tables(std::uint8_t c) {
  NibbleTables t;
  for (int i = 0; i < 16; ++i) {
    t.lo[i] = gf256::mul(c, static_cast<std::uint8_t>(i));
    t.hi[i] = gf256::mul(c, static_cast<std::uint8_t>(i << 4));
  }
  return t;
}

}  // namespace

namespace gf256 {

std::uint8_t exp(unsigned e) {
  ACR_REQUIRE(e < 510, "gf256::exp exponent out of table range");
  return kGf.exp[e];
}

std::uint8_t log(std::uint8_t a) {
  ACR_REQUIRE(a != 0, "gf256::log of zero");
  return kGf.log[a];
}

std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return kGf.exp[unsigned{kGf.log[a]} + unsigned{kGf.log[b]}];
}

std::uint8_t div(std::uint8_t a, std::uint8_t b) {
  ACR_REQUIRE(b != 0, "gf256 division by zero");
  if (a == 0) return 0;
  return kGf.exp[unsigned{kGf.log[a]} + 255u - unsigned{kGf.log[b]}];
}

std::uint8_t inv(std::uint8_t a) {
  ACR_REQUIRE(a != 0, "gf256 inverse of zero");
  return kGf.exp[255u - unsigned{kGf.log[a]}];
}

}  // namespace gf256

namespace kernels {

void gf256_muladd_row_portable(std::byte* dst, const std::byte* src,
                               std::uint8_t coeff, std::size_t n) {
  NibbleTables t = make_nibble_tables(coeff);
  for (std::size_t i = 0; i < n; ++i) {
    auto s = static_cast<std::uint8_t>(src[i]);
    dst[i] ^= static_cast<std::byte>(t.lo[s & 0xFu] ^ t.hi[s >> 4]);
  }
}

#if ACR_HAVE_SSSE3_KERNEL
__attribute__((target("ssse3"))) void gf256_muladd_row_hw(std::byte* dst,
                                                          const std::byte* src,
                                                          std::uint8_t coeff,
                                                          std::size_t n) {
  NibbleTables t = make_nibble_tables(coeff);
  const __m128i vlo =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.lo));
  const __m128i vhi =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(t.hi));
  const __m128i mask = _mm_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    __m128i lo = _mm_shuffle_epi8(vlo, _mm_and_si128(s, mask));
    __m128i hi =
        _mm_shuffle_epi8(vhi, _mm_and_si128(_mm_srli_epi64(s, 4), mask));
    __m128i d = _mm_loadu_si128(reinterpret_cast<__m128i*>(dst + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_xor_si128(d, _mm_xor_si128(lo, hi)));
  }
  for (; i < n; ++i) {
    auto s = static_cast<std::uint8_t>(src[i]);
    dst[i] ^= static_cast<std::byte>(t.lo[s & 0xFu] ^ t.hi[s >> 4]);
  }
}
#else
void gf256_muladd_row_hw(std::byte*, const std::byte*, std::uint8_t,
                         std::size_t) {
  ACR_REQUIRE(false, "SSSE3 GF(256) kernel not available in this build");
}
#endif

}  // namespace kernels

// ---------------------------------------------------------------------------
// Dispatch — resolved together with the CRC32C kernel by set_kernel_impl.
// ---------------------------------------------------------------------------

namespace {

using RowFn = void (*)(std::byte*, const std::byte*, std::uint8_t,
                       std::size_t);

std::atomic<RowFn> g_row{nullptr};

RowFn row_fn() {
  RowFn f = g_row.load(std::memory_order_acquire);
  if (f == nullptr) {
    // First use before any explicit set_kernel_impl: trigger the shared
    // lazy resolution (environment override, else auto-detect), which
    // stores the row kernel as a side effect.
    active_crc32c_kernel();
    f = g_row.load(std::memory_order_acquire);
  }
  return f;
}

}  // namespace

bool gf256_hw_available() {
#if ACR_HAVE_SSSE3_KERNEL
  return __builtin_cpu_supports("ssse3") != 0;
#else
  return false;
#endif
}

const char* active_gf256_kernel() {
  return row_fn() == &kernels::gf256_muladd_row_hw ? "hw" : "portable";
}

namespace kernels {

namespace detail {

void gf256_set_row_impl(KernelImpl impl) {
  RowFn f = nullptr;
  switch (impl) {
    case KernelImpl::Portable:
      f = &gf256_muladd_row_portable;
      break;
    case KernelImpl::Hw:
      ACR_REQUIRE(gf256_hw_available(),
                  "hw kernels requested but SSSE3 is not available");
      f = &gf256_muladd_row_hw;
      break;
    case KernelImpl::Auto:
      f = gf256_hw_available() ? &gf256_muladd_row_hw
                               : &gf256_muladd_row_portable;
      break;
  }
  g_row.store(f, std::memory_order_release);
}

}  // namespace detail

void gf256_muladd_row(std::byte* dst, const std::byte* src, std::uint8_t coeff,
                      std::size_t n) {
  if (coeff == 0 || n == 0) return;
  if (coeff == 1) {
    xor_fold_words(dst, src, n);
    return;
  }
  row_fn()(dst, src, coeff, n);
}

}  // namespace kernels

void gf256_muladd(std::vector<std::byte>& acc, std::span<const std::byte> add,
                  std::uint8_t coeff) {
  if (coeff == 0 || add.empty()) return;
  if (add.size() > acc.size()) acc.resize(add.size(), std::byte{0});
  kernels::gf256_muladd_row(acc.data(), add.data(), coeff, add.size());
}

}  // namespace acr::checksum
