// GF(256) kernel and Reed–Solomon layout-algebra tests.
//
// The field layer is pinned against an independent bit-serial reference
// (Russian-peasant multiplication over 0x11D) — exhaustively for the
// scalar ops, by fuzz for the row kernel over unaligned sizes and tails,
// and portable-vs-SSSE3 when the hardware kernel is available. The
// rs_layout algebra (chunk routing bijection, parity slot/holder duality,
// Cauchy coefficient invertibility) is checked for every (n, m), and an
// in-memory encode → erase-up-to-m → Gaussian-decode round trip proves
// the multi-loss property the RsScheme relies on, without any runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <span>
#include <vector>

#include "checksum/gf256.h"
#include "ckpt/rs.h"
#include "common/rng.h"

namespace acr {
namespace {

namespace gf = checksum::gf256;

/// Independent reference product: bit-serial Russian-peasant multiply
/// reducing by the primitive polynomial 0x11D. Shares nothing with the
/// log/exp-table implementation under test.
std::uint8_t ref_mul(std::uint8_t a, std::uint8_t b) {
  unsigned acc = 0;
  unsigned aa = a;
  for (unsigned bb = b; bb != 0; bb >>= 1) {
    if (bb & 1u) acc ^= aa;
    aa <<= 1;
    if (aa & 0x100u) aa ^= 0x11Du;
  }
  return static_cast<std::uint8_t>(acc);
}

// ---------------------------------------------------------------------------
// Scalar field ops.
// ---------------------------------------------------------------------------

TEST(Gf256Scalar, MulMatchesBitSerialReferenceExhaustively) {
  for (int a = 0; a < 256; ++a)
    for (int b = 0; b < 256; ++b)
      ASSERT_EQ(gf::mul(static_cast<std::uint8_t>(a),
                        static_cast<std::uint8_t>(b)),
                ref_mul(static_cast<std::uint8_t>(a),
                        static_cast<std::uint8_t>(b)))
          << a << " * " << b;
}

TEST(Gf256Scalar, DivInvertsMulExhaustively) {
  for (int a = 0; a < 256; ++a) {
    for (int b = 1; b < 256; ++b) {
      std::uint8_t p = gf::mul(static_cast<std::uint8_t>(a),
                               static_cast<std::uint8_t>(b));
      ASSERT_EQ(gf::div(p, static_cast<std::uint8_t>(b)), a)
          << "(" << a << "*" << b << ")/" << b;
    }
  }
}

TEST(Gf256Scalar, InverseMultipliesToOne) {
  for (int a = 1; a < 256; ++a) {
    std::uint8_t ia = gf::inv(static_cast<std::uint8_t>(a));
    EXPECT_NE(ia, 0);
    EXPECT_EQ(gf::mul(static_cast<std::uint8_t>(a), ia), 1) << "a=" << a;
  }
}

TEST(Gf256Scalar, LogExpRoundTripAndDoubledTable) {
  for (int a = 1; a < 256; ++a)
    EXPECT_EQ(gf::exp(gf::log(static_cast<std::uint8_t>(a))), a);
  // The doubled table lets mul index exp[log a + log b] without a mod —
  // exp must have period 255 over its whole [0, 510) domain.
  for (unsigned e = 0; e < 255; ++e)
    EXPECT_EQ(gf::exp(e), gf::exp(e + 255)) << "e=" << e;
  EXPECT_EQ(gf::exp(0), 1);
  EXPECT_EQ(gf::exp(1), 2);  // generator
}

// ---------------------------------------------------------------------------
// Row kernel.
// ---------------------------------------------------------------------------

/// Scalar model of dst[i] ^= coeff * src[i], via the reference multiply.
void ref_muladd(std::byte* dst, const std::byte* src, std::uint8_t coeff,
                std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    dst[i] ^= std::byte{ref_mul(coeff, std::to_integer<std::uint8_t>(src[i]))};
}

std::vector<std::byte> random_bytes(Pcg32& rng, std::size_t n) {
  std::vector<std::byte> v(n);
  for (auto& b : v) b = std::byte(rng.next() & 0xFF);
  return v;
}

TEST(Gf256Row, MuladdRowMatchesScalarReferenceOverUnalignedSizes) {
  Pcg32 rng(2024, 0x6F);
  // Sizes straddling every tail case of the 16-byte SSSE3 stride and the
  // word-at-a-time portable loop.
  const std::size_t sizes[] = {0,  1,  2,  3,   7,   8,   9,    15,  16,
                               17, 31, 33, 100, 255, 256, 1000, 4109};
  for (std::size_t n : sizes) {
    for (int trial = 0; trial < 8; ++trial) {
      std::uint8_t coeff = static_cast<std::uint8_t>(rng.next() & 0xFF);
      std::vector<std::byte> src = random_bytes(rng, n);
      std::vector<std::byte> got = random_bytes(rng, n);
      std::vector<std::byte> want = got;
      checksum::kernels::gf256_muladd_row(got.data(), src.data(), coeff, n);
      ref_muladd(want.data(), src.data(), coeff, n);
      ASSERT_EQ(got, want) << "n=" << n << " coeff=" << int(coeff);
    }
  }
}

TEST(Gf256Row, MuladdRowHandlesMisalignedPointers) {
  Pcg32 rng(7, 0x6F);
  for (std::size_t off = 0; off < 4; ++off) {
    std::vector<std::byte> src = random_bytes(rng, 300 + off);
    std::vector<std::byte> got = random_bytes(rng, 300 + off);
    std::vector<std::byte> want = got;
    std::size_t n = 300 - off;
    checksum::kernels::gf256_muladd_row(got.data() + off, src.data() + off,
                                        0xA7, n);
    ref_muladd(want.data() + off, src.data() + off, 0xA7, n);
    ASSERT_EQ(got, want) << "offset " << off;
  }
}

TEST(Gf256Row, CoeffZeroIsNoOpAndCoeffOneIsXor) {
  Pcg32 rng(11, 0x6F);
  std::vector<std::byte> src = random_bytes(rng, 257);
  std::vector<std::byte> acc = random_bytes(rng, 257);
  std::vector<std::byte> orig = acc;
  checksum::kernels::gf256_muladd_row(acc.data(), src.data(), 0, acc.size());
  EXPECT_EQ(acc, orig);
  checksum::kernels::gf256_muladd_row(acc.data(), src.data(), 1, acc.size());
  for (std::size_t i = 0; i < acc.size(); ++i)
    ASSERT_EQ(acc[i], orig[i] ^ src[i]) << i;
}

TEST(Gf256Row, PortableAndHardwareKernelsAgree) {
  if (!checksum::gf256_hw_available())
    GTEST_SKIP() << "no SSSE3 kernel in this build/CPU";
  Pcg32 rng(99, 0x6F);
  const std::size_t sizes[] = {1, 15, 16, 17, 64, 333, 4096, 4109};
  for (std::size_t n : sizes) {
    for (int trial = 0; trial < 4; ++trial) {
      std::uint8_t coeff = static_cast<std::uint8_t>(rng.next() & 0xFF);
      std::vector<std::byte> src = random_bytes(rng, n);
      std::vector<std::byte> a = random_bytes(rng, n);
      std::vector<std::byte> b = a;
      checksum::kernels::gf256_muladd_row_portable(a.data(), src.data(), coeff,
                                                   n);
      checksum::kernels::gf256_muladd_row_hw(b.data(), src.data(), coeff, n);
      ASSERT_EQ(a, b) << "n=" << n << " coeff=" << int(coeff);
    }
  }
}

TEST(Gf256Row, ChunkedFoldIsThreadCountInvariant) {
  Pcg32 rng(4242, 0x6F);
  // Spans several kDigestChunk grid cells plus a ragged tail, and an acc
  // shorter than add to exercise the zero-extension.
  std::vector<std::byte> add = random_bytes(rng, 3 * 256 * 1024 + 777);
  std::vector<std::byte> acc0 = random_bytes(rng, 256 * 1024 + 13);

  std::vector<std::byte> got = acc0;
  checksum::gf256_muladd(got, add, 0x53);
  ASSERT_EQ(got.size(), add.size());

  std::vector<std::byte> want(add.size());
  std::copy(acc0.begin(), acc0.end(), want.begin());
  ref_muladd(want.data(), add.data(), 0x53, add.size());
  EXPECT_EQ(got, want);
}

// ---------------------------------------------------------------------------
// Stripe-layout algebra.
// ---------------------------------------------------------------------------

namespace rsl = ckpt::rs_layout;

TEST(Gf256Layout, ChunkRoutingIsABijectionPerMember) {
  for (int n = 2; n <= 9; ++n) {
    for (int m = 1; m < n; ++m) {
      int k = rsl::chunk_count(n, m);
      ASSERT_EQ(k, n - m);
      for (int r = 0; r < n; ++r) {
        std::set<int> stripes;
        for (int t = 0; t < k; ++t) {
          int s = rsl::data_stripe(n, r, t);
          ASSERT_TRUE(rsl::is_data_member(n, m, r, s))
              << "n=" << n << " m=" << m << " r=" << r << " t=" << t;
          ASSERT_EQ(rsl::chunk_index(n, r, s), t);
          stripes.insert(s);
        }
        // k distinct stripes; the other m stripes hold r's parity slots.
        ASSERT_EQ(static_cast<int>(stripes.size()), k);
        int parity_slots = 0;
        for (int s = 0; s < n; ++s) {
          if (stripes.count(s)) continue;
          int q = rsl::parity_slot(n, m, r, s);
          ASSERT_GE(q, 0) << "n=" << n << " m=" << m << " r=" << r
                          << " s=" << s;
          ASSERT_EQ(rsl::parity_holder(n, s, q), r);
          ++parity_slots;
        }
        ASSERT_EQ(parity_slots, m);
      }
    }
  }
}

TEST(Gf256Layout, EveryStripeHasExactlyMParityHoldersAndKDataMembers) {
  for (int n = 2; n <= 9; ++n) {
    for (int m = 1; m < n; ++m) {
      for (int s = 0; s < n; ++s) {
        int data = 0, parity = 0;
        for (int r = 0; r < n; ++r) {
          bool is_data = rsl::is_data_member(n, m, r, s);
          int q = rsl::parity_slot(n, m, r, s);
          ASSERT_NE(is_data, q >= 0);
          is_data ? ++data : ++parity;
        }
        ASSERT_EQ(data, n - m);
        ASSERT_EQ(parity, m);
        for (int q = 0; q < m; ++q)
          ASSERT_EQ(rsl::parity_slot(n, m, rsl::parity_holder(n, s, q), s), q);
      }
    }
  }
}

TEST(Gf256Layout, SingleParityCoefficientsAreInvertibleScalars) {
  // m = 1 keeps the XOR scheme's rotated-stripe LAYOUT but weights rank r
  // by the Cauchy scalar 1/(1+r) — any single coefficient must be a
  // nonzero (hence invertible) field element so one equation always
  // solves one unknown.
  for (int r = 0; r < 16; ++r) {
    std::uint8_t c = rsl::coeff(1, 0, r);
    ASSERT_NE(c, 0) << "r=" << r;
    EXPECT_EQ(gf::mul(c, static_cast<std::uint8_t>(1 + r)), 1)
        << "coeff(1,0," << r << ") != 1/(1+r)";
  }
}

TEST(Gf256Layout, CauchyCoefficientsAreNonZeroAndPairwiseSolvable) {
  // Nonzero entries (any single loss solvable from any one equation) and
  // invertible 2x2 minors (any double loss solvable from any two): the
  // base cases of the general Cauchy-minor argument the round-trip test
  // exercises end to end.
  const int m = 4, cols = 12;
  for (int q = 0; q < m; ++q)
    for (int r = 0; r < cols; ++r) EXPECT_NE(rsl::coeff(m, q, r), 0);
  for (int q1 = 0; q1 < m; ++q1)
    for (int q2 = q1 + 1; q2 < m; ++q2)
      for (int r1 = 0; r1 < cols; ++r1)
        for (int r2 = r1 + 1; r2 < cols; ++r2) {
          std::uint8_t det =
              gf::mul(rsl::coeff(m, q1, r1), rsl::coeff(m, q2, r2)) ^
              gf::mul(rsl::coeff(m, q1, r2), rsl::coeff(m, q2, r1));
          ASSERT_NE(det, 0) << "singular 2x2 minor at q=(" << q1 << "," << q2
                            << ") r=(" << r1 << "," << r2 << ")";
        }
}

// ---------------------------------------------------------------------------
// Encode → erase up to m → decode round trip (pure algebra, no runtime).
// ---------------------------------------------------------------------------

/// In-memory model of one parity group: member images (possibly ragged
/// sizes), the full parity grid, and a per-stripe Gaussian decoder — the
/// same algebra RsScheme runs, restated independently for the test.
struct ModelGroup {
  int n, m, k;
  std::vector<std::vector<std::byte>> images;
  // parity[s][q]: stripe s, slot q (held by member (s + q) % n).
  std::vector<std::vector<std::vector<std::byte>>> parity;

  static std::size_t chunk_len(std::size_t size, int k) {
    return (size + static_cast<std::size_t>(k) - 1) /
           static_cast<std::size_t>(k);
  }

  /// Member r's chunk t as a span (may be short or empty at the tail).
  std::span<const std::byte> chunk(int r, int t) const {
    std::size_t len = chunk_len(images[r].size(), k);
    std::size_t begin = std::min(images[r].size(), t * len);
    std::size_t end = std::min(images[r].size(), (t + 1) * len);
    return std::span<const std::byte>(images[r]).subspan(begin, end - begin);
  }

  void encode() {
    parity.assign(n, std::vector<std::vector<std::byte>>(m));
    for (int s = 0; s < n; ++s) {
      for (int q = 0; q < m; ++q) {
        std::vector<std::byte>& p = parity[s][q];
        for (int r = 0; r < n; ++r) {
          if (!rsl::is_data_member(n, m, r, s)) continue;
          std::span<const std::byte> c = chunk(r, rsl::chunk_index(n, r, s));
          if (p.size() < c.size()) p.resize(c.size());
          checksum::kernels::gf256_muladd_row(p.data(), c.data(),
                                              rsl::coeff(m, q, r), c.size());
        }
      }
    }
  }

  /// Rebuild every dead member's image from the survivors' chunks and
  /// parity blocks, via a per-stripe Gauss–Jordan solve. Data and parity
  /// held by dead members are off limits.
  std::vector<std::vector<std::byte>> decode(const std::set<int>& dead) const {
    std::vector<std::vector<std::byte>> out(n);
    for (int d : dead) out[d].assign(images[d].size(), std::byte{0});
    for (int s = 0; s < n; ++s) {
      std::vector<int> unknowns;  // dead data members of this stripe
      for (int r = 0; r < n; ++r)
        if (rsl::is_data_member(n, m, r, s) && dead.count(r))
          unknowns.push_back(r);
      if (unknowns.empty()) continue;
      std::vector<int> eqs;  // parity slots whose holder survived
      for (int q = 0; q < m; ++q)
        if (!dead.count(rsl::parity_holder(n, s, q))) eqs.push_back(q);
      EXPECT_GE(eqs.size(), unknowns.size()) << "stripe " << s;
      std::size_t u = unknowns.size();
      eqs.resize(u);
      // Syndromes: parity minus the surviving data members' contributions.
      std::size_t width = 0;
      for (int q : eqs) width = std::max(width, parity[s][q].size());
      std::vector<std::vector<std::byte>> rhs(u);
      for (std::size_t i = 0; i < u; ++i) {
        rhs[i] = parity[s][eqs[i]];
        rhs[i].resize(width, std::byte{0});
        for (int r = 0; r < n; ++r) {
          if (!rsl::is_data_member(n, m, r, s) || dead.count(r)) continue;
          std::span<const std::byte> c = chunk(r, rsl::chunk_index(n, r, s));
          checksum::kernels::gf256_muladd_row(rhs[i].data(), c.data(),
                                              rsl::coeff(m, eqs[i], r),
                                              c.size());
        }
      }
      // Gauss–Jordan on the u x u Cauchy minor.
      std::vector<std::vector<std::uint8_t>> a(u, std::vector<std::uint8_t>(u));
      for (std::size_t i = 0; i < u; ++i)
        for (std::size_t j = 0; j < u; ++j)
          a[i][j] = rsl::coeff(m, eqs[i], unknowns[j]);
      for (std::size_t col = 0; col < u; ++col) {
        std::size_t piv = col;
        while (piv < u && a[piv][col] == 0) ++piv;
        EXPECT_LT(piv, u) << "singular Cauchy minor";
        if (piv >= u) return out;
        std::swap(a[piv], a[col]);
        std::swap(rhs[piv], rhs[col]);
        std::uint8_t ip = gf::inv(a[col][col]);
        for (std::size_t j = 0; j < u; ++j) a[col][j] = gf::mul(a[col][j], ip);
        for (std::size_t i = 0; i < rhs[col].size(); ++i)
          rhs[col][i] = std::byte{
              gf::mul(ip, std::to_integer<std::uint8_t>(rhs[col][i]))};
        for (std::size_t row = 0; row < u; ++row) {
          if (row == col || a[row][col] == 0) continue;
          std::uint8_t f = a[row][col];
          for (std::size_t j = 0; j < u; ++j)
            a[row][j] ^= gf::mul(f, a[col][j]);
          checksum::kernels::gf256_muladd_row(rhs[row].data(), rhs[col].data(),
                                              f, rhs[col].size());
        }
      }
      // Write each solved chunk into its member's image slot.
      for (std::size_t j = 0; j < u; ++j) {
        int d = unknowns[j];
        int t = rsl::chunk_index(n, d, s);
        std::size_t len = chunk_len(images[d].size(), k);
        std::size_t begin = std::min(images[d].size(), t * len);
        std::size_t end = std::min(images[d].size(), (t + 1) * len);
        for (std::size_t i = begin; i < end; ++i)
          out[d][i] = rhs[j][i - begin];
      }
    }
    return out;
  }
};

TEST(Gf256RoundTrip, AnyMLossesDecodeBitwiseAcrossGroupShapes) {
  Pcg32 rng(31337, 0x6F);
  for (int n = 3; n <= 6; ++n) {
    for (int m = 1; m < n; ++m) {
      ModelGroup g;
      g.n = n;
      g.m = m;
      g.k = rsl::chunk_count(n, m);
      g.images.resize(n);
      for (int r = 0; r < n; ++r)
        g.images[r] = random_bytes(rng, 64 * static_cast<std::size_t>(g.k));
      g.encode();
      // Every dead set of size exactly m (the worst case; smaller sets are
      // sub-problems of some size-m set).
      std::vector<int> pick(m);
      std::function<void(int, int)> enumerate = [&](int start, int depth) {
        if (depth == m) {
          std::set<int> dead(pick.begin(), pick.end());
          auto rebuilt = g.decode(dead);
          for (int d : dead)
            ASSERT_EQ(rebuilt[d], g.images[d])
                << "n=" << n << " m=" << m << " dead rank " << d;
          return;
        }
        for (int r = start; r < n; ++r) {
          pick[depth] = r;
          enumerate(r + 1, depth + 1);
        }
      };
      enumerate(0, 0);
    }
  }
}

TEST(Gf256RoundTrip, RaggedAndEmptyImagesDecodeBitwise) {
  // Member sizes that don't divide by k, differ across the group, and
  // include an empty image: the zero-extension conventions must hold.
  Pcg32 rng(555, 0x6F);
  ModelGroup g;
  g.n = 5;
  g.m = 2;
  g.k = 3;
  const std::size_t sizes[] = {190, 0, 64, 191, 3};
  g.images.resize(g.n);
  for (int r = 0; r < g.n; ++r) g.images[r] = random_bytes(rng, sizes[r]);
  g.encode();
  for (int d1 = 0; d1 < g.n; ++d1) {
    for (int d2 = d1 + 1; d2 < g.n; ++d2) {
      std::set<int> dead{d1, d2};
      auto rebuilt = g.decode(dead);
      ASSERT_EQ(rebuilt[d1], g.images[d1]) << d1 << "," << d2;
      ASSERT_EQ(rebuilt[d2], g.images[d2]) << d1 << "," << d2;
    }
  }
}

TEST(Gf256RoundTrip, FuzzRandomErasuresLargerGroups) {
  Pcg32 rng(777, 0x6F);
  for (int trial = 0; trial < 40; ++trial) {
    ModelGroup g;
    g.n = 4 + static_cast<int>(rng.bounded(6));  // 4..9
    g.m = 1 + static_cast<int>(rng.bounded(
                  static_cast<std::uint32_t>(g.n - 1)));  // 1..n-1
    g.k = rsl::chunk_count(g.n, g.m);
    g.images.resize(g.n);
    for (int r = 0; r < g.n; ++r)
      g.images[r] = random_bytes(rng, 1 + rng.bounded(2000));
    g.encode();
    int f = 1 + static_cast<int>(
                    rng.bounded(static_cast<std::uint32_t>(g.m)));  // 1..m
    std::set<int> dead;
    while (static_cast<int>(dead.size()) < f)
      dead.insert(static_cast<int>(
          rng.bounded(static_cast<std::uint32_t>(g.n))));
    auto rebuilt = g.decode(dead);
    for (int d : dead)
      ASSERT_EQ(rebuilt[d], g.images[d])
          << "trial " << trial << " n=" << g.n << " m=" << g.m << " f=" << f;
  }
}

}  // namespace
}  // namespace acr
