#include "failure/injector.h"

#include <cstring>
#include <vector>

#include "common/require.h"
#include "pup/checker.h"

namespace acr::failure {

namespace {

constexpr std::size_t kHeaderSize = sizeof(std::uint8_t) + sizeof(std::uint64_t);

std::size_t elem_size_of(pup::Tag tag) {
  using pup::Tag;
  switch (tag) {
    case Tag::Bytes:
    case Tag::I8:
    case Tag::U8:
      return 1;
    case Tag::I16:
    case Tag::U16:
      return 2;
    case Tag::I32:
    case Tag::U32:
    case Tag::F32:
      return 4;
    case Tag::I64:
    case Tag::U64:
    case Tag::F64:
    case Tag::Size:
      return 8;
    case Tag::OptionsPush:
      return sizeof(pup::CompareOptions);
    case Tag::OptionsPop:
      return 0;
  }
  throw pup::StreamError("unknown tag in injector");
}

bool eligible(pup::Tag tag) {
  return tag == pup::Tag::F32 || tag == pup::Tag::F64;
}

/// Collect [offset, length) spans of flippable payload.
std::vector<std::pair<std::size_t, std::size_t>> payload_spans(
    std::span<const std::byte> stream) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    ACR_REQUIRE(pos + kHeaderSize <= stream.size(),
                "malformed stream in injector");
    std::uint8_t t;
    std::uint64_t n;
    std::memcpy(&t, stream.data() + pos, sizeof t);
    std::memcpy(&n, stream.data() + pos + sizeof t, sizeof n);
    pos += kHeaderSize;
    auto tag = static_cast<pup::Tag>(t);
    std::size_t payload = static_cast<std::size_t>(n) * elem_size_of(tag);
    ACR_REQUIRE(pos + payload <= stream.size(),
                "malformed stream payload in injector");
    if (eligible(tag) && payload > 0) spans.emplace_back(pos, payload);
    pos += payload;
  }
  return spans;
}

}  // namespace

std::size_t payload_bytes(std::span<const std::byte> stream) {
  std::size_t total = 0;
  for (const auto& [off, len] : payload_spans(stream)) total += len;
  return total;
}

BitFlip flip_random_payload_bit(std::span<std::byte> stream, Pcg32& rng) {
  auto spans = payload_spans(stream);
  std::size_t total = 0;
  for (const auto& [off, len] : spans) total += len;
  ACR_REQUIRE(total > 0, "stream has no payload bytes to corrupt");

  std::uint64_t pick = rng.next64() % total;
  for (const auto& [off, len] : spans) {
    if (pick < len) {
      BitFlip flip;
      flip.byte_offset = off + static_cast<std::size_t>(pick);
      flip.bit = rng.bounded(8);
      stream[flip.byte_offset] ^=
          static_cast<std::byte>(1u << flip.bit);
      return flip;
    }
    pick -= len;
  }
  ACR_REQUIRE(false, "unreachable: payload selection fell through");
  return {};
}

}  // namespace acr::failure
