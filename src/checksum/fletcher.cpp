#include "checksum/fletcher.h"

#include <cstring>

namespace acr::checksum {

namespace {

constexpr std::uint64_t kMod32 = 0xFFFFFFFFULL;  // 2^32 - 1

// Fold a 4-byte-aligned run of words into (sum1, sum2) with periodic
// modular reduction. 92679 iterations is the largest block for which
// sum2 cannot overflow 64 bits when sums start below 2^32.
void fold_words(const std::uint8_t* p, std::size_t words, std::uint64_t& sum1,
                std::uint64_t& sum2) {
  while (words > 0) {
    std::size_t block = words < 92679 ? words : 92679;
    words -= block;
    for (std::size_t i = 0; i < block; ++i) {
      std::uint32_t w;
      std::memcpy(&w, p, 4);
      p += 4;
      sum1 += w;
      sum2 += sum1;
    }
    sum1 %= kMod32;
    sum2 %= kMod32;
  }
}

}  // namespace

std::uint64_t fletcher64(std::span<const std::byte> data) {
  Fletcher64 f;
  f.append(data);
  return f.digest();
}

void Fletcher64::append(std::span<const std::byte> block) {
  const std::uint8_t* p = reinterpret_cast<const std::uint8_t*>(block.data());
  std::size_t len = block.size();
  size_ += len;

  // Fill the pending tail first.
  while (pending_len_ > 0 && pending_len_ < 4 && len > 0) {
    pending_[pending_len_++] = *p++;
    --len;
  }
  if (pending_len_ == 4) {
    fold_words(pending_, 1, sum1_, sum2_);
    pending_len_ = 0;
  }

  std::size_t words = len / 4;
  fold_words(p, words, sum1_, sum2_);
  p += words * 4;
  len -= words * 4;

  for (std::size_t i = 0; i < len; ++i) pending_[pending_len_++] = p[i];
}

std::uint64_t Fletcher64::digest() const {
  std::uint64_t s1 = sum1_, s2 = sum2_;
  if (pending_len_ > 0) {
    std::uint8_t tail[4] = {0, 0, 0, 0};
    std::memcpy(tail, pending_, pending_len_);  // zero-padded final word
    std::uint32_t w;
    std::memcpy(&w, tail, 4);
    s1 = (s1 + w) % kMod32;
    s2 = (s2 + s1) % kMod32;
  } else {
    s1 %= kMod32;
    s2 %= kMod32;
  }
  return (s2 << 32) | s1;
}

void Fletcher64::reset() { *this = Fletcher64{}; }

}  // namespace acr::checksum
