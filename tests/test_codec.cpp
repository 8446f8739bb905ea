// Unit and property tests for the staged checkpoint codec pipeline
// (ckpt/codec.h): the LZ block codec against a scalar reference, frame
// encode/decode, the chunk memo, thread-count invariance, vault v2 delta
// blobs, and the durable tier's delta chains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "buf/buffer.h"
#include "checksum/kernels.h"
#include "ckpt/codec.h"
#include "ckpt/tier.h"
#include "ckpt/vault.h"
#include "common/rng.h"

namespace acr::ckpt {
namespace {

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed, 11);
  std::vector<std::byte> out(n);
  for (auto& b : out) b = static_cast<std::byte>(rng.bounded(256));
  return out;
}

/// Lattice-flavoured data: long runs of repeated doubles with sparse noise,
/// the shape checkpoint images of iterative codes actually have.
std::vector<std::byte> lattice_bytes(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed, 13);
  std::vector<double> vals(n / sizeof(double) + 1, 1.0);
  for (std::size_t i = 0; i < vals.size() / 50; ++i)
    vals[rng.next64() % vals.size()] = rng.uniform();
  std::vector<std::byte> out(n);
  if (n > 0) std::memcpy(out.data(), vals.data(), n);
  return out;
}

CodecConfig config(bool delta, bool compress) {
  CodecConfig c;
  c.delta = delta ? DeltaMode::On : DeltaMode::Off;
  c.compress = compress ? CompressMode::Lz : CompressMode::None;
  return c;
}

// ---------------------------------------------------------------------------
// Reference LZ codec: the original byte-at-a-time scalar kernels, kept
// verbatim as the oracle for the token stream. The production kernels must
// emit exactly these bytes (frames, parity deltas and L2 blobs depend on it).
// ---------------------------------------------------------------------------

namespace ref {

namespace {

constexpr std::size_t kLzWindow = 65535;  // 16-bit back-offsets
constexpr std::size_t kLzMinMatch = 4;
constexpr std::size_t kLzMaxMatch = 259;  // length-4 fits one byte
constexpr std::size_t kLzHashBits = 15;

inline std::uint32_t lz_hash(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kLzHashBits);
}

}  // namespace

std::vector<std::byte> lz_compress_block(std::span<const std::byte> in) {
  const std::size_t n = in.size();
  std::vector<std::byte> out;
  out.reserve(n / 2 + 16);
  // Single-entry hash table of 4-byte prefixes -> most recent position.
  std::vector<std::int64_t> head(std::size_t{1} << kLzHashBits, -1);

  std::size_t ctrl_pos = 0;  // index of the current control byte in `out`
  int ctrl_used = 8;         // forces a fresh control byte on first item

  auto begin_item = [&](bool is_match) {
    if (ctrl_used == 8) {
      ctrl_pos = out.size();
      out.push_back(std::byte{0});
      ctrl_used = 0;
    }
    if (is_match)
      out[ctrl_pos] |= std::byte{static_cast<unsigned char>(1u << ctrl_used)};
    ++ctrl_used;
  };

  std::size_t p = 0;
  while (p < n) {
    std::size_t best_len = 0;
    std::size_t best_off = 0;
    if (p + kLzMinMatch <= n) {
      std::uint32_t h = lz_hash(in.data() + p);
      std::int64_t cand = head[h];
      head[h] = static_cast<std::int64_t>(p);
      if (cand >= 0) {
        std::size_t off = p - static_cast<std::size_t>(cand);
        if (off >= 1 && off <= kLzWindow) {
          const std::byte* a = in.data() + p;
          const std::byte* b = in.data() + static_cast<std::size_t>(cand);
          std::size_t limit = std::min(kLzMaxMatch, n - p);
          std::size_t len = 0;
          while (len < limit && a[len] == b[len]) ++len;
          if (len >= kLzMinMatch) {
            best_len = len;
            best_off = off;
          }
        }
      }
    }
    if (best_len > 0) {
      begin_item(true);
      out.push_back(std::byte{static_cast<unsigned char>(best_off & 0xFF)});
      out.push_back(std::byte{static_cast<unsigned char>(best_off >> 8)});
      out.push_back(
          std::byte{static_cast<unsigned char>(best_len - kLzMinMatch)});
      // Index the covered positions so later zero/lattice runs keep finding
      // nearby matches; skipping them would still be correct, just weaker.
      std::size_t stop = std::min(p + best_len, n - kLzMinMatch + 1);
      for (std::size_t q = p + 1; q < stop; ++q)
        head[lz_hash(in.data() + q)] = static_cast<std::int64_t>(q);
      p += best_len;
    } else {
      begin_item(false);
      out.push_back(in[p]);
      ++p;
    }
  }
  return out;
}

std::vector<std::byte> lz_decompress_block(std::span<const std::byte> in,
                                           std::size_t out_len) {
  std::vector<std::byte> out;
  out.reserve(out_len);
  std::size_t p = 0;
  std::uint8_t ctrl = 0;
  int ctrl_left = 0;
  while (out.size() < out_len) {
    if (ctrl_left == 0) {
      if (p >= in.size()) throw pup::StreamError("lz block truncated");
      ctrl = static_cast<std::uint8_t>(in[p++]);
      ctrl_left = 8;
    }
    bool is_match = (ctrl & 1u) != 0;
    ctrl >>= 1;
    --ctrl_left;
    if (is_match) {
      if (p + 3 > in.size()) throw pup::StreamError("lz block truncated");
      std::size_t off = static_cast<std::size_t>(in[p]) |
                        (static_cast<std::size_t>(in[p + 1]) << 8);
      std::size_t len = static_cast<std::size_t>(in[p + 2]) + kLzMinMatch;
      p += 3;
      if (off == 0 || off > out.size() || out.size() + len > out_len)
        throw pup::StreamError("lz block has a bad match token");
      // Byte-by-byte: offset-1 runs legitimately overlap their own output.
      std::size_t src = out.size() - off;
      for (std::size_t i = 0; i < len; ++i) out.push_back(out[src + i]);
    } else {
      if (p >= in.size()) throw pup::StreamError("lz block truncated");
      out.push_back(in[p++]);
    }
  }
  if (p != in.size())
    throw pup::StreamError("lz block has trailing garbage");
  return out;
}

}  // namespace ref

// ---------------------------------------------------------------------------
// LZ block codec.
// ---------------------------------------------------------------------------

TEST(LzBlock, RoundTripsRandomData) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{4096}, std::size_t{70000}}) {
    std::vector<std::byte> in = random_bytes(n, 42 + n);
    std::vector<std::byte> packed = lz_compress_block(in);
    EXPECT_EQ(lz_decompress_block(packed, n), in) << "n=" << n;
  }
}

TEST(LzBlock, CompressesRunsAndLattices) {
  std::vector<std::byte> zeros(1 << 16, std::byte{0});
  std::vector<std::byte> packed = lz_compress_block(zeros);
  EXPECT_LT(packed.size(), zeros.size() / 20);
  EXPECT_EQ(lz_decompress_block(packed, zeros.size()), zeros);

  std::vector<std::byte> lat = lattice_bytes(1 << 17, 7);
  std::vector<std::byte> lp = lz_compress_block(lat);
  EXPECT_LT(lp.size(), lat.size());
  EXPECT_EQ(lz_decompress_block(lp, lat.size()), lat);
}

TEST(LzBlock, IncompressibleDataStillRoundTrips) {
  // Worst case: random bytes grow by the control-byte overhead (1/8), and
  // the codec's per-chunk raw fallback is what keeps frames bounded.
  std::vector<std::byte> in = random_bytes(1 << 15, 99);
  std::vector<std::byte> packed = lz_compress_block(in);
  EXPECT_LE(packed.size(), in.size() + in.size() / 8 + 8);
  EXPECT_EQ(lz_decompress_block(packed, in.size()), in);
}

TEST(LzBlock, TruncatedInputThrows) {
  std::vector<std::byte> in = lattice_bytes(4096, 3);
  std::vector<std::byte> packed = lz_compress_block(in);
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, packed.size() / 2,
                          packed.size() - 1}) {
    std::vector<std::byte> trunc(packed.begin(),
                                 packed.begin() + static_cast<long>(cut));
    EXPECT_THROW(lz_decompress_block(trunc, in.size()), pup::StreamError)
        << "cut=" << cut;
  }
}

TEST(LzBlock, TrailingGarbageThrows) {
  std::vector<std::byte> in = lattice_bytes(4096, 4);
  std::vector<std::byte> packed = lz_compress_block(in);
  packed.push_back(std::byte{0x5A});
  EXPECT_THROW(lz_decompress_block(packed, in.size()), pup::StreamError);
}

TEST(LzBlock, BadMatchTokenThrows) {
  // Hand-build a stream whose first item is a match: no prior output makes
  // any offset invalid.
  std::vector<std::byte> bad = {std::byte{0x01},   // ctrl: item 0 is a match
                                std::byte{0x01}, std::byte{0x00},  // offset 1
                                std::byte{0x00}};  // length 4
  EXPECT_THROW(lz_decompress_block(bad, 16), pup::StreamError);
}

TEST(LzBlock, AdversarialRandomStreamsNeverCrash) {
  // Decoding random bytes must either produce out_len bytes or throw —
  // never read out of bounds (ASan-checked in the sanitizer CI job).
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    std::vector<std::byte> junk = random_bytes(64 + seed % 128, 1000 + seed);
    try {
      std::vector<std::byte> out = lz_decompress_block(junk, 512);
      EXPECT_EQ(out.size(), 512u);
    } catch (const pup::StreamError&) {
      // expected for most seeds
    }
  }
}

/// Bytes repeating a random `period`-byte pattern.
std::vector<std::byte> periodic_bytes(std::size_t n, std::size_t period,
                                      std::uint64_t seed) {
  std::vector<std::byte> pat = random_bytes(period, seed);
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = pat[i % period];
  return out;
}

/// Dense doubles: every value distinct, the incompressible end of lattice
/// state.
std::vector<std::byte> dense_doubles(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed, 17);
  std::vector<double> vals(n / sizeof(double) + 1);
  for (double& v : vals) v = rng.uniform();
  std::vector<std::byte> out(n);
  if (n > 0) std::memcpy(out.data(), vals.data(), n);
  return out;
}

/// The production kernels against the reference on one input: identical
/// tokens, the early-exit form agreeing on "does it shrink", and both
/// decoders inverting both encoders.
void expect_matches_reference(const std::vector<std::byte>& in,
                              const std::string& what) {
  SCOPED_TRACE(what + " n=" + std::to_string(in.size()));
  std::vector<std::byte> want = ref::lz_compress_block(in);
  std::vector<std::byte> got = lz_compress_block(in);
  ASSERT_EQ(got, want);
  std::optional<std::vector<std::byte>> smaller = lz_compress_if_smaller(in);
  ASSERT_EQ(smaller.has_value(), want.size() < in.size());
  if (smaller) {
    EXPECT_EQ(*smaller, want);
  }
  EXPECT_EQ(lz_decompress_block(want, in.size()), in);
  EXPECT_EQ(ref::lz_decompress_block(got, in.size()), in);
}

TEST(LzBlock, MatchesReferenceTokenStream) {
  std::vector<std::size_t> lengths = {4095, 4096 + 7, checksum::kDigestChunk,
                                      checksum::kDigestChunk - 5};
  for (std::size_t n = 0; n <= 9; ++n) lengths.push_back(n);
  std::uint64_t seed = 1;
  for (std::size_t n : lengths) {
    expect_matches_reference(std::vector<std::byte>(n, std::byte{0}), "zeros");
    for (std::size_t period = 1; period <= 17; ++period)
      expect_matches_reference(periodic_bytes(n, period, ++seed),
                               "period " + std::to_string(period));
    std::vector<std::byte> noise = random_bytes(n, ++seed);
    expect_matches_reference(noise, "random");
    // Random bytes never shrink: the raw-fallback path of the codec.
    EXPECT_FALSE(lz_compress_if_smaller(noise).has_value()) << "n=" << n;
    expect_matches_reference(dense_doubles(n, ++seed), "doubles");
    expect_matches_reference(lattice_bytes(n, ++seed), "lattice");
    // Ragged tails: a compressible body ending in a few random bytes, and
    // random bytes ending in a run.
    if (n >= 16) {
      std::vector<std::byte> body = periodic_bytes(n, 3, ++seed);
      std::vector<std::byte> tail = random_bytes(n % 13 + 1, ++seed);
      std::copy(tail.begin(), tail.end(),
                body.end() - static_cast<long>(tail.size()));
      expect_matches_reference(body, "periodic + ragged tail");
      std::vector<std::byte> mixed = random_bytes(n, ++seed);
      std::fill(mixed.end() - static_cast<long>(n / 3), mixed.end(),
                std::byte{7});
      expect_matches_reference(mixed, "random + run tail");
    }
  }
}

TEST(LzBlock, FuzzMatchesReference) {
  // Random splices of the shapes above at random lengths: runs that end
  // mid-match, periods straddling the 259-byte cap and the 64 KiB window.
  Pcg32 rng(2024, 5);
  for (int round = 0; round < 60; ++round) {
    std::size_t n = rng.bounded(70000);
    std::vector<std::byte> in;
    in.reserve(n);
    while (in.size() < n) {
      std::size_t piece = 1 + rng.bounded(3000);
      std::vector<std::byte> part;
      switch (rng.bounded(4)) {
        case 0:
          part = periodic_bytes(piece, 1 + rng.bounded(17), rng.next64());
          break;
        case 1:
          part = random_bytes(piece, rng.next64());
          break;
        case 2:
          part = dense_doubles(piece, rng.next64());
          break;
        default:
          part.assign(piece, std::byte{0});
          break;
      }
      in.insert(in.end(), part.begin(), part.end());
    }
    in.resize(n);
    expect_matches_reference(in, "splice " + std::to_string(round));
  }
}

TEST(LzBlock, DecoderMatchesReferenceOnJunk) {
  // Same verdict as the reference decoder on arbitrary streams: the same
  // bytes, or both throw.
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    std::vector<std::byte> junk = random_bytes(8 + seed % 200, 7000 + seed);
    // Bias towards valid-looking matches: small offsets, early matches.
    if (seed % 2 == 0)
      for (std::size_t i = 2; i < junk.size(); i += 4) junk[i] = std::byte{0};
    std::size_t out_len = 16 + seed % 300;
    std::optional<std::vector<std::byte>> want, got;
    try {
      want = ref::lz_decompress_block(junk, out_len);
    } catch (const pup::StreamError&) {
    }
    try {
      got = lz_decompress_block(junk, out_len);
    } catch (const pup::StreamError&) {
    }
    EXPECT_EQ(got, want) << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Frame encode/decode.
// ---------------------------------------------------------------------------

/// An image spanning several 256 KiB chunks, with a ragged tail.
buf::Buffer test_image(std::uint64_t seed, std::size_t chunks = 3) {
  return buf::Buffer::wrap(
      lattice_bytes(chunks * checksum::kDigestChunk + 1234, seed));
}

TEST(CodecFrame, FullRawFrameAliasesTheImage) {
  buf::Buffer img = test_image(1);
  CodecPipeline pipe(config(false, false));
  CodecFrame f = pipe.encode_full(img);
  EXPECT_TRUE(f.map.all_present());
  EXPECT_EQ(f.encoding, 0);
  EXPECT_TRUE(f.payload.aliases(img)) << "full raw frame must be zero-copy";
  EXPECT_EQ(f.raw_payload_bytes, img.size());
  buf::Buffer back = CodecPipeline::decode(f, {});
  EXPECT_TRUE(back.content_equals(img));
}

TEST(CodecFrame, DeltaCarriesOnlyDirtyChunks) {
  buf::Buffer base = test_image(2, 4);
  std::vector<std::byte> next(base.bytes().begin(), base.bytes().end());
  // Dirty exactly chunk 1 (one byte) and the ragged tail chunk.
  next[checksum::kDigestChunk + 17] ^= std::byte{0xFF};
  next[next.size() - 1] ^= std::byte{0x01};
  buf::Buffer img = buf::Buffer::wrap(std::move(next));

  std::vector<std::uint32_t> base_dig = CodecPipeline::digests(base.bytes());
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  CodecPipeline pipe(config(true, false));
  CodecFrame f = pipe.encode(img, dig, &base_dig, base.size());

  ASSERT_EQ(f.map.chunks(), 5u);
  EXPECT_EQ(f.map.present_chunks(), 2u);
  EXPECT_EQ(f.map.present[1], 1);
  EXPECT_EQ(f.map.present[4], 1);
  EXPECT_LT(f.encoded_bytes(), img.size() / 2);

  buf::Buffer back = CodecPipeline::decode(f, base.bytes());
  EXPECT_TRUE(back.content_equals(img));
}

TEST(CodecFrame, DeltaWithNoChangesShipsNoChunks) {
  buf::Buffer img = test_image(3);
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  CodecPipeline pipe(config(true, false));
  CodecFrame f = pipe.encode(img, dig, &dig, img.size());
  EXPECT_EQ(f.map.present_chunks(), 0u);
  EXPECT_EQ(f.payload.size(), 0u);
  buf::Buffer back = CodecPipeline::decode(f, img.bytes());
  EXPECT_TRUE(back.content_equals(img));
}

TEST(CodecFrame, MismatchedBaseFallsBackToFullMap) {
  buf::Buffer img = test_image(4);
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  std::vector<std::uint32_t> short_dig(dig.begin(), dig.end() - 1);
  CodecPipeline pipe(config(true, false));
  // Base of a different size: every chunk must ship.
  CodecFrame f = pipe.encode(img, dig, &short_dig, img.size() - 5);
  EXPECT_TRUE(f.map.all_present());
}

TEST(CodecFrame, CompressedFrameRoundTrips) {
  buf::Buffer img = test_image(5);
  CodecPipeline pipe(config(false, true));
  CodecFrame f = pipe.encode_full(img);
  EXPECT_EQ(f.encoding, 1);
  EXPECT_LT(f.payload.size(), img.size());
  buf::Buffer back = CodecPipeline::decode(f, {});
  EXPECT_TRUE(back.content_equals(img));
}

TEST(CodecFrame, DeltaPlusCompressRoundTrips) {
  buf::Buffer base = test_image(6, 4);
  std::vector<std::byte> next(base.bytes().begin(), base.bytes().end());
  for (std::size_t i = 0; i < checksum::kDigestChunk / 2; i += 64)
    next[2 * checksum::kDigestChunk + i] ^= std::byte{0x3C};
  buf::Buffer img = buf::Buffer::wrap(std::move(next));
  std::vector<std::uint32_t> base_dig = CodecPipeline::digests(base.bytes());
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  CodecPipeline pipe(config(true, true));
  CodecFrame f = pipe.encode(img, dig, &base_dig, base.size());
  EXPECT_EQ(f.map.present_chunks(), 1u);
  EXPECT_LT(f.encoded_bytes(), checksum::kDigestChunk);
  buf::Buffer back = CodecPipeline::decode(f, base.bytes());
  EXPECT_TRUE(back.content_equals(img));
}

TEST(CodecFrame, DecodeRejectsMalformedFrames) {
  buf::Buffer img = test_image(7, 2);
  CodecPipeline pipe(config(false, true));
  CodecFrame f = pipe.encode_full(img);

  // Truncated payload.
  CodecFrame cut = f;
  cut.payload = f.payload.slice(0, f.payload.size() - 3);
  EXPECT_THROW(CodecPipeline::decode(cut, {}), pup::StreamError);

  // Map/size mismatch.
  CodecFrame bad_map = f;
  bad_map.map.present.push_back(1);
  EXPECT_THROW(CodecPipeline::decode(bad_map, {}), pup::StreamError);

  // Delta frame without its base.
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  std::vector<std::uint32_t> other = dig;
  other[0] ^= 1;  // chunk 0 clean per the fake base, so it is absent
  CodecPipeline dpipe(config(true, false));
  CodecFrame delta = dpipe.encode(img, dig, &other, img.size());
  ASSERT_FALSE(delta.map.all_present());
  EXPECT_THROW(CodecPipeline::decode(delta, {}), pup::StreamError);
}

TEST(CodecFrame, EncodeIsThreadCountInvariant) {
  buf::Buffer base = test_image(8, 6);
  std::vector<std::byte> next(base.bytes().begin(), base.bytes().end());
  for (std::size_t i = 0; i < next.size(); i += 100000)
    next[i] ^= std::byte{0x77};
  buf::Buffer img = buf::Buffer::wrap(std::move(next));
  std::vector<std::uint32_t> base_dig = CodecPipeline::digests(base.bytes());

  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  CodecPipeline pipe(config(true, true));
  CodecFrame f = pipe.encode(img, dig, &base_dig, base.size());
  std::vector<std::byte> reference(f.payload.bytes().begin(),
                                   f.payload.bytes().end());

  // With a memo: a cold encode compresses the misses and fills the memo; a
  // warm one (over a copy, as the other replica packs) is all hits. Both
  // must still be the reference bytes.
  ChunkMemo memo;
  CodecPipeline memo_pipe(config(true, true), &memo);
  buf::Buffer twin = buf::Buffer::copy_of(img.bytes());
  for (const buf::Buffer* src : {&img, &twin}) {
    CodecFrame m = memo_pipe.encode(*src, dig, &base_dig, base.size());
    EXPECT_TRUE(std::ranges::equal(m.payload.bytes(), reference))
        << (src == &twin ? "warm" : "cold");
  }
  EXPECT_EQ(memo.stats().hits, f.map.present_chunks());
}

// ---------------------------------------------------------------------------
// Chunk memo.
// ---------------------------------------------------------------------------

std::vector<std::byte> payload_of(const CodecFrame& f) {
  return std::vector<std::byte>(f.payload.bytes().begin(),
                                f.payload.bytes().end());
}

TEST(CodecMemo, WarmMemoFramesMatchColdPipeline) {
  buf::Buffer base = test_image(30, 5);
  std::vector<std::byte> next(base.bytes().begin(), base.bytes().end());
  next[checksum::kDigestChunk + 9] ^= std::byte{0x10};
  next[4 * checksum::kDigestChunk + 3] ^= std::byte{0x20};
  buf::Buffer img = buf::Buffer::wrap(next);
  buf::Buffer twin = buf::Buffer::wrap(next);  // the other replica's image
  std::vector<std::uint32_t> base_dig = CodecPipeline::digests(base.bytes());
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());

  CodecPipeline cold(config(true, true));
  CodecFrame want_full = cold.encode_full(img);
  CodecFrame want_delta = cold.encode(img, dig, &base_dig, base.size());

  ChunkMemo memo;
  CodecPipeline warm(config(true, true), &memo);
  // Full frame first (every chunk misses), then the delta of the same
  // image and both frames of the twin: all hits.
  EXPECT_EQ(payload_of(warm.encode_full(img)), payload_of(want_full));
  std::uint64_t misses = memo.stats().misses;
  EXPECT_EQ(misses, want_full.map.chunks());
  EXPECT_EQ(payload_of(warm.encode(img, dig, &base_dig, base.size())),
            payload_of(want_delta));
  EXPECT_EQ(payload_of(warm.encode_full(twin)), payload_of(want_full));
  EXPECT_EQ(payload_of(warm.encode(twin, dig, &base_dig, base.size())),
            payload_of(want_delta));
  EXPECT_EQ(memo.stats().misses, misses);
  EXPECT_EQ(memo.stats().hits,
            2 * want_full.map.chunks() + 2 * want_delta.map.present_chunks() -
                want_full.map.chunks());
  buf::Buffer back = CodecPipeline::decode(want_delta, base.bytes());
  EXPECT_TRUE(back.content_equals(img));
}

TEST(CodecMemo, HoldsNoOwnerOfItsSource) {
  ChunkMemo memo;
  CodecPipeline pipe(config(false, true), &memo);
  buf::Buffer img = test_image(31, 3);
  CodecFrame f = pipe.encode_full(img);
  EXPECT_EQ(memo.size(), f.map.chunks());
  EXPECT_EQ(img.owners(), 1) << "the memo must not own the image";

  std::vector<std::byte> bytes(img.bytes().begin(), img.bytes().end());
  img = buf::Buffer();  // the image is freed...
  memo.prune();
  EXPECT_EQ(memo.size(), 0u) << "...and its entries go with it";

  // Identical bytes in a new image are a plain miss, never a stale hit.
  buf::Buffer again = buf::Buffer::wrap(std::move(bytes));
  std::uint64_t hits = memo.stats().hits;
  EXPECT_EQ(payload_of(pipe.encode_full(again)), payload_of(f));
  EXPECT_EQ(memo.stats().hits, hits);
}

TEST(CodecMemo, RecycledArenaIsAMiss) {
  // A BufferBuilder reuses a retired arena once its Buffers are gone. The
  // memo's view of the old bytes must expire, not match the new bytes that
  // now sit at the same address.
  // The first image's digests are passed for both, so the keys collide
  // and only the source view's expiry keeps this a miss.
  ChunkMemo memo;
  CodecPipeline pipe(config(true, true), &memo);
  buf::BufferBuilder builder;
  std::vector<std::byte> first = lattice_bytes(2 * checksum::kDigestChunk, 32);
  std::vector<std::uint32_t> dig = CodecPipeline::digests(first);
  builder.write(first);
  buf::Buffer img = builder.take();
  pipe.encode(img, dig, nullptr, 0);
  img = buf::Buffer();
  std::vector<std::byte> second = lattice_bytes(2 * checksum::kDigestChunk, 33);
  builder.write(second);
  buf::Buffer img2 = builder.take();
  ASSERT_EQ(builder.stats().arena_reuses, 1u);
  std::uint64_t hits = memo.stats().hits;
  CodecFrame f = pipe.encode(img2, dig, nullptr, 0);
  EXPECT_EQ(memo.stats().hits, hits);
  EXPECT_EQ(payload_of(f), payload_of(CodecPipeline(config(false, true))
                                          .encode_full(img2)));
}

TEST(CodecMemo, ForgedDigestCollisionIsAMiss) {
  ChunkMemo memo;
  CodecPipeline pipe(config(true, true), &memo);
  buf::Buffer a = test_image(34, 2);
  buf::Buffer b = test_image(35, 2);
  ASSERT_EQ(a.size(), b.size());
  std::vector<std::uint32_t> dig_a = CodecPipeline::digests(a.bytes());
  pipe.encode(a, dig_a, nullptr, 0);
  std::uint64_t hits = memo.stats().hits;
  // b's bytes under a's digests: every key collides, no entry may match.
  CodecFrame f = pipe.encode(b, dig_a, nullptr, 0);
  EXPECT_EQ(memo.stats().hits, hits);
  EXPECT_EQ(payload_of(f),
            payload_of(CodecPipeline(config(true, true)).encode_full(b)));
  EXPECT_TRUE(CodecPipeline::decode(f, {}).content_equals(b));
}

// ---------------------------------------------------------------------------
// Vault v2 delta blobs.
// ---------------------------------------------------------------------------

TEST(VaultV2, DeltaBlobRoundTrips) {
  buf::Buffer base = test_image(9, 3);
  std::vector<std::byte> next(base.bytes().begin(), base.bytes().end());
  next[10] ^= std::byte{0x42};
  buf::Buffer img = buf::Buffer::wrap(std::move(next));
  std::vector<std::uint32_t> base_dig = CodecPipeline::digests(base.bytes());
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  CodecPipeline pipe(config(true, true));

  DeltaBlob blob;
  blob.epoch = 5;
  blob.iteration = 50;
  blob.base_epoch = 4;
  blob.frame = pipe.encode(img, dig, &base_dig, base.size());
  std::vector<std::byte> bytes = encode_delta_image(blob);
  EXPECT_EQ(bytes.size(), encoded_delta_bytes(blob.frame));

  DecodedBlob decoded = decode_any_image(bytes);
  ASSERT_TRUE(decoded.is_delta);
  EXPECT_EQ(decoded.delta.epoch, 5u);
  EXPECT_EQ(decoded.delta.base_epoch, 4u);
  buf::Buffer back = CodecPipeline::decode(decoded.delta.frame, base.bytes());
  EXPECT_TRUE(back.content_equals(img));
}

TEST(VaultV2, DecodeAnyHandlesV1AndRejectsCorruption) {
  StoredImage img;
  img.epoch = 3;
  img.iteration = 30;
  img.image = pup::Checkpoint(test_image(10, 1));
  std::vector<std::byte> v1 = encode_stored_image(img);
  DecodedBlob d = decode_any_image(v1);
  ASSERT_FALSE(d.is_delta);
  EXPECT_EQ(d.full.epoch, 3u);
  EXPECT_TRUE(d.full.image.buffer().content_equals(img.image.buffer()));

  v1[v1.size() / 2] ^= std::byte{0x01};
  EXPECT_THROW(decode_any_image(v1), pup::StreamError);
}

// ---------------------------------------------------------------------------
// Durable-tier delta chains.
// ---------------------------------------------------------------------------

/// Publish epochs 1..k for role (0,0): epoch 1 full, later epochs deltas
/// each dirtying one byte. Returns the final image.
buf::Buffer publish_chain(DurableTier& tier, int k, std::uint64_t seed) {
  CodecPipeline pipe(config(true, false));
  buf::Buffer first = test_image(seed, 2);
  std::vector<std::byte> cur(first.bytes().begin(), first.bytes().end());
  std::vector<std::uint32_t> prev_dig;
  for (int e = 1; e <= k; ++e) {
    buf::Buffer img = buf::Buffer::copy_of(cur);
    std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
    if (e == 1) {
      StoredImage full;
      full.epoch = 1;
      full.iteration = 10;
      full.image = pup::Checkpoint(img);
      tier.publish(0, 0, full);
    } else {
      DeltaBlob blob;
      blob.epoch = static_cast<std::uint64_t>(e);
      blob.iteration = static_cast<std::uint64_t>(e) * 10;
      blob.base_epoch = static_cast<std::uint64_t>(e - 1);
      blob.frame = pipe.encode(img, dig, &prev_dig, cur.size());
      tier.publish_blob(0, 0, blob.epoch, encode_delta_image(blob),
                        blob.base_epoch);
    }
    prev_dig = std::move(dig);
    cur[static_cast<std::size_t>(e) * 1000] ^= std::byte{0xA5};
  }
  // `cur` was mutated after the last publish; rebuild the published state.
  cur[static_cast<std::size_t>(k) * 1000] ^= std::byte{0xA5};
  return buf::Buffer::copy_of(cur);
}

TEST(TierChain, FetchReconstructsThroughDeltaChain) {
  DurableTier tier(1, 1);
  buf::Buffer expect = publish_chain(tier, 4, 20);
  EXPECT_EQ(tier.delta_publishes(), 3u);
  EXPECT_EQ(tier.chain_length(0, 0, 4), 4u);
  EXPECT_GT(tier.chain_bytes(0, 0, 4), tier.blob_bytes(0, 0, 4));

  std::optional<StoredImage> got = tier.fetch(0, 0, 4);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->epoch, 4u);
  EXPECT_EQ(got->iteration, 40u);
  EXPECT_TRUE(got->image.buffer().content_equals(expect));
}

TEST(TierChain, BrokenChainYieldsNulloptNotGarbage) {
  // A delta blob published into a tier that never saw its base epoch:
  // fetch must fail cleanly (pushing the wave to an older rung), never
  // fabricate an image.
  DurableTier no_base(1, 1);
  CodecPipeline pipe(config(true, true));
  buf::Buffer img = test_image(22, 1);
  DeltaBlob blob;
  blob.epoch = 2;
  blob.base_epoch = 1;
  std::vector<std::uint32_t> dig = CodecPipeline::digests(img.bytes());
  std::vector<std::uint32_t> other = dig;
  other[0] ^= 1;
  blob.frame = pipe.encode(img, dig, &other, img.size());
  no_base.publish_blob(0, 0, 2, encode_delta_image(blob), 1);
  EXPECT_FALSE(no_base.fetch(0, 0, 2).has_value());
  EXPECT_EQ(no_base.chain_bytes(0, 0, 2), 0u);
}

TEST(TierChain, PruneKeepsAncestorsOfLiveDeltas) {
  DurableTier tier(1, 1);
  buf::Buffer expect = publish_chain(tier, 3, 23);
  tier.prune(3);  // would drop epochs 1 and 2 — but 3 needs them
  std::optional<StoredImage> got = tier.fetch(0, 0, 3);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->image.buffer().content_equals(expect));
}

}  // namespace
}  // namespace acr::ckpt
