// Fletcher checksum tests: reference values, incremental equivalence,
// position dependence, and flip-detection properties.
#include <gtest/gtest.h>

#include <cstring>
#include <string_view>

#include "checksum/fletcher.h"
#include "common/rng.h"

namespace acr::checksum {
namespace {

std::vector<std::byte> to_bytes(std::string_view s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

TEST(Fletcher64, EmptyAndTiny) {
  EXPECT_EQ(fletcher64({}), 0u);
  auto one = to_bytes("a");
  // One byte zero-padded to the word 0x00000061: sum1 = sum2 = 0x61.
  EXPECT_EQ(fletcher64(one), (0x61ULL << 32) | 0x61ULL);
}

TEST(Fletcher64, IncrementalMatchesOneShotOnWordBoundaries) {
  Pcg32 rng(11, 1);
  std::vector<std::byte> data(4096);
  for (auto& b : data) b = static_cast<std::byte>(rng.bounded(256));
  std::uint64_t oneshot = fletcher64(data);

  Fletcher64 inc;
  std::size_t pos = 0;
  // 4-byte-multiple chunks except possibly the last.
  while (pos < data.size()) {
    std::size_t chunk = std::min<std::size_t>(4 * (1 + rng.bounded(64)),
                                              data.size() - pos);
    inc.append(std::span<const std::byte>(data).subspan(pos, chunk));
    pos += chunk;
  }
  EXPECT_EQ(inc.digest(), oneshot);
  EXPECT_EQ(inc.size(), data.size());
}

TEST(Fletcher64, PositionDependent) {
  // Swapping two words must change the digest (a plain sum would not).
  std::vector<std::byte> a = to_bytes("AAAABBBBCCCC");
  std::vector<std::byte> b = to_bytes("BBBBAAAACCCC");
  EXPECT_NE(fletcher64(a), fletcher64(b));
}

TEST(Fletcher64, LargeBufferDoesNotOverflow) {
  // Exercise the periodic modular reduction with > 92679 words.
  std::vector<std::byte> data(4 * 200000, std::byte{0xFF});
  std::uint64_t d = fletcher64(data);
  // Both halves must stay below the modulus.
  EXPECT_LT(d & 0xFFFFFFFFULL, 0xFFFFFFFFULL);
  EXPECT_LT(d >> 32, 0xFFFFFFFFULL);
  // And match a two-part incremental fold.
  Fletcher64 inc;
  inc.append(std::span<const std::byte>(data).subspan(0, data.size() / 2));
  inc.append(std::span<const std::byte>(data).subspan(data.size() / 2));
  EXPECT_EQ(inc.digest(), d);
}

class FletcherFlip : public ::testing::TestWithParam<int> {};

TEST_P(FletcherFlip, DetectsEverySingleBitFlip) {
  Pcg32 rng(static_cast<std::uint64_t>(GetParam()), 2);
  std::vector<std::byte> data(257);  // odd size: exercises padding
  for (auto& b : data) b = static_cast<std::byte>(rng.bounded(256));
  std::uint64_t clean = fletcher64(data);
  for (std::size_t byte = 0; byte < data.size(); ++byte) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      data[byte] ^= static_cast<std::byte>(1u << bit);
      EXPECT_NE(fletcher64(data), clean)
          << "missed flip at byte " << byte << " bit " << bit;
      data[byte] ^= static_cast<std::byte>(1u << bit);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FletcherFlip, ::testing::Range(0, 3));

}  // namespace
}  // namespace acr::checksum
