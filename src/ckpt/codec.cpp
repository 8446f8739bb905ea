#include "ckpt/codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/require.h"

namespace acr::ckpt {

const char* delta_mode_name(DeltaMode m) {
  return m == DeltaMode::On ? "on" : "off";
}

const char* compress_mode_name(CompressMode m) {
  return m == CompressMode::Lz ? "lz" : "none";
}

std::size_t ChunkMap::present_chunks() const {
  std::size_t n = 0;
  for (std::uint8_t f : present) n += f != 0;
  return n;
}

bool ChunkMap::all_present() const {
  return present_chunks() == present.size();
}

// ---------------------------------------------------------------------------
// Chunk memo.
// ---------------------------------------------------------------------------

namespace {
std::uint64_t memo_key(std::uint32_t crc, std::size_t len) {
  return (static_cast<std::uint64_t>(len) << 32) | crc;
}
}  // namespace

const ChunkMemo::Entry* ChunkMemo::find(std::uint32_t crc,
                                        std::span<const std::byte> chunk) {
  auto it = entries_.find(memo_key(crc, chunk.size()));
  if (it != entries_.end()) {
    buf::Buffer source = it->second.source.lock();
    if (source.size() == chunk.size() &&
        std::memcmp(source.data(), chunk.data(), chunk.size()) == 0) {
      ++stats_.hits;
      return &it->second;
    }
  }
  ++stats_.misses;
  return nullptr;
}

void ChunkMemo::insert(std::uint32_t crc, const buf::Buffer& chunk,
                       ChunkEncoding enc, std::vector<std::byte> body) {
  if (entries_.size() >= sweep_at_) {
    prune();
    sweep_at_ = std::max(kMinSweep, 2 * entries_.size());
  }
  entries_.insert_or_assign(
      memo_key(crc, chunk.size()),
      Entry{buf::WeakBuffer(chunk), enc, std::move(body)});
}

void ChunkMemo::prune() {
  std::erase_if(entries_,
                [](const auto& kv) { return kv.second.source.expired(); });
}

// ---------------------------------------------------------------------------
// LZ block codec.
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kLzWindow = 65535;  // 16-bit back-offsets
constexpr std::size_t kLzMinMatch = 4;
constexpr std::size_t kLzMaxMatch = 259;  // length-4 fits one byte
constexpr std::size_t kLzHashBits = 15;
constexpr std::uint32_t kLzNoPos = 0xFFFFFFFFu;

inline std::uint32_t lz_hash(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kLzHashBits);
}

/// Length of the common prefix of `a` and `b`, at most `limit`: eight
/// bytes per step, the first differing byte found by XOR + bit count.
inline std::size_t match_length(const std::byte* a, const std::byte* b,
                                std::size_t limit) {
  std::size_t len = 0;
  while (len + 8 <= limit) {
    std::uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (std::uint64_t d = x ^ y) {
      if constexpr (std::endian::native == std::endian::little)
        return len + static_cast<std::size_t>(std::countr_zero(d) >> 3);
      else
        return len + static_cast<std::size_t>(std::countl_zero(d) >> 3);
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

/// Worst-case stream size: every item a literal, one control byte per 8.
inline std::size_t lz_bound(std::size_t n) { return n + n / 8 + 1; }

/// Per-thread compressor scratch, reused across blocks: the hash table and
/// a worst-case output buffer.
struct LzScratch {
  std::vector<std::uint32_t> head =
      std::vector<std::uint32_t>(std::size_t{1} << kLzHashBits);
  std::vector<std::byte> out;
};

LzScratch& lz_scratch() {
  thread_local LzScratch s;
  return s;
}

/// Encode `in` into the thread's scratch; returns the stream length, or
/// stops early once it reaches `give_up_at` and returns that (the caller
/// then discards the stream).
std::size_t lz_encode(std::span<const std::byte> in, LzScratch& s,
                      std::size_t give_up_at) {
  const std::size_t n = in.size();
  ACR_REQUIRE(n < kLzNoPos, "lz block too large for 32-bit positions");
  if (s.out.size() < lz_bound(n)) s.out.resize(lz_bound(n));
  std::uint32_t* head = s.head.data();
  std::fill(s.head.begin(), s.head.end(), kLzNoPos);
  const std::byte* src = in.data();
  std::byte* const out = s.out.data();
  std::byte* o = out;
  std::byte* ctrl = nullptr;
  unsigned ctrl_bit = 8;  // forces a fresh control byte on the first item
  // Positions below hash_end have a full 4-byte prefix to hash.
  const std::size_t hash_end = n >= kLzMinMatch ? n - kLzMinMatch + 1 : 0;

  std::size_t p = 0;
  while (p < n) {
    if (ctrl_bit == 8) {
      ctrl = o++;
      *ctrl = std::byte{0};
      ctrl_bit = 0;
    }
    std::size_t len = 0;
    std::size_t off = 0;
    if (p < hash_end) {
      std::uint32_t h = lz_hash(src + p);
      std::uint32_t cand = head[h];
      head[h] = static_cast<std::uint32_t>(p);
      if (cand != kLzNoPos) {
        off = p - cand;  // >= 1: the table only holds earlier positions
        if (off <= kLzWindow)
          len = match_length(src + p, src + cand, std::min(kLzMaxMatch, n - p));
      }
    }
    if (len >= kLzMinMatch) {
      *ctrl |= std::byte{static_cast<unsigned char>(1u << ctrl_bit)};
      o[0] = std::byte{static_cast<unsigned char>(off & 0xFF)};
      o[1] = std::byte{static_cast<unsigned char>(off >> 8)};
      o[2] = std::byte{static_cast<unsigned char>(len - kLzMinMatch)};
      o += 3;
      // Index the covered positions so later zero/lattice runs keep finding
      // nearby matches. In a periodic match (off < len) position q has the
      // same 4-byte prefix as q + off, whose write would overwrite q's, so
      // only the last period's writes can survive the loop: skip the rest.
      std::size_t q = p + 1;
      if (len > off + kLzMinMatch) q = p + len - off - (kLzMinMatch - 1);
      std::size_t stop = std::min(p + len, hash_end);
      for (; q < stop; ++q)
        head[lz_hash(src + q)] = static_cast<std::uint32_t>(q);
      p += len;
    } else {
      *o++ = src[p++];
    }
    ++ctrl_bit;
    if (static_cast<std::size_t>(o - out) >= give_up_at) return give_up_at;
  }
  return static_cast<std::size_t>(o - out);
}

}  // namespace

std::vector<std::byte> lz_compress_block(std::span<const std::byte> in) {
  LzScratch& s = lz_scratch();
  std::size_t len = lz_encode(in, s, lz_bound(in.size()) + 1);
  return std::vector<std::byte>(s.out.begin(),
                                s.out.begin() + static_cast<long>(len));
}

std::optional<std::vector<std::byte>> lz_compress_if_smaller(
    std::span<const std::byte> in) {
  LzScratch& s = lz_scratch();
  std::size_t len = lz_encode(in, s, in.size());
  if (len >= in.size()) return std::nullopt;
  return std::vector<std::byte>(s.out.begin(),
                                s.out.begin() + static_cast<long>(len));
}

void lz_decompress_into(std::span<const std::byte> in,
                        std::span<std::byte> out) {
  const std::size_t out_len = out.size();
  std::byte* const dst = out.data();
  std::size_t o = 0;
  std::size_t p = 0;
  unsigned ctrl = 0;
  int ctrl_left = 0;
  while (o < out_len) {
    if (ctrl_left == 0) {
      if (p >= in.size()) throw pup::StreamError("lz block truncated");
      ctrl = static_cast<unsigned>(in[p++]);
      ctrl_left = 8;
    }
    bool is_match = (ctrl & 1u) != 0;
    ctrl >>= 1;
    --ctrl_left;
    if (!is_match) {
      if (p >= in.size()) throw pup::StreamError("lz block truncated");
      dst[o++] = in[p++];
      continue;
    }
    if (p + 3 > in.size()) throw pup::StreamError("lz block truncated");
    std::size_t off = static_cast<std::size_t>(in[p]) |
                      (static_cast<std::size_t>(in[p + 1]) << 8);
    std::size_t len = static_cast<std::size_t>(in[p + 2]) + kLzMinMatch;
    p += 3;
    if (off == 0 || off > o || len > out_len - o)
      throw pup::StreamError("lz block has a bad match token");
    std::byte* d = dst + o;
    o += len;
    if (off >= len) {
      std::memcpy(d, d - off, len);
    } else if (off == 1) {
      std::memset(d, static_cast<int>(d[-1]), len);
    } else {
      // Overlapping periodic copy: [d - off, d) is one period; each copy
      // doubles the replicated span, and copying from `step` back (a
      // multiple of the period) keeps source and destination disjoint.
      std::size_t step = off;
      while (len > 0) {
        std::size_t c = std::min(step, len);
        std::memcpy(d, d - step, c);
        d += c;
        len -= c;
        step *= 2;
      }
    }
  }
  if (p != in.size())
    throw pup::StreamError("lz block has trailing garbage");
}

std::vector<std::byte> lz_decompress_block(std::span<const std::byte> in,
                                           std::size_t out_len) {
  std::vector<std::byte> out(out_len);
  lz_decompress_into(in, out);
  return out;
}

// ---------------------------------------------------------------------------
// Frame encode/decode.
// ---------------------------------------------------------------------------

namespace {

/// Per-chunk record header of encoding-1 payloads: u8 encoding, u32 length.
constexpr std::size_t kRecordHeader = 5;

void append_record(buf::BufferBuilder& b, ChunkEncoding enc,
                   std::span<const std::byte> body) {
  std::uint8_t e = static_cast<std::uint8_t>(enc);
  std::uint32_t len = static_cast<std::uint32_t>(body.size());
  b.write(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(&e), 1));
  b.write(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(&len), sizeof len));
  b.write(body);
}

}  // namespace

/// Stages 1–3 sans payload: the chunk map and byte accounting.
static CodecFrame start_frame(const CodecConfig& cfg,
                              std::span<const std::byte> image,
                              std::span<const std::uint32_t> digests,
                              const std::vector<std::uint32_t>* base_digests,
                              std::uint64_t base_bytes) {
  const std::size_t n = checksum::digest_chunk_count(image.size());
  CodecFrame frame;
  frame.map.full_bytes = image.size();
  frame.map.present.assign(n, 1);

  bool delta = cfg.delta_on() && base_digests != nullptr &&
               base_bytes == image.size() && base_digests->size() == n &&
               digests.size() == n;
  if (delta)
    for (std::size_t i = 0; i < n; ++i)
      frame.map.present[i] = digests[i] != (*base_digests)[i] ? 1 : 0;

  for (std::size_t i = 0; i < n; ++i) {
    if (!frame.map.present[i]) continue;
    auto [begin, end] = checksum::digest_chunk_range(image.size(), i);
    frame.raw_payload_bytes += end - begin;
  }
  return frame;
}

CodecFrame CodecPipeline::encode(std::span<const std::byte> image,
                                 std::span<const std::uint32_t> digests,
                                 const std::vector<std::uint32_t>* base_digests,
                                 std::uint64_t base_bytes) const {
  return encode_chunks(image, nullptr, digests, base_digests, base_bytes);
}

CodecFrame CodecPipeline::encode_chunks(
    std::span<const std::byte> image, const buf::Buffer* owner,
    std::span<const std::uint32_t> digests,
    const std::vector<std::uint32_t>* base_digests,
    std::uint64_t base_bytes) const {
  CodecFrame frame =
      start_frame(cfg_, image, digests, base_digests, base_bytes);
  const std::size_t n = frame.map.present.size();
  std::vector<std::size_t> carried;
  carried.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (frame.map.present[i]) carried.push_back(i);
  auto chunk_of = [&](std::size_t i) {
    auto [begin, end] = checksum::digest_chunk_range(image.size(), i);
    return image.subspan(begin, end - begin);
  };

  if (!cfg_.compress_on()) {
    frame.encoding = 0;
    if (carried.size() == n) {
      frame.payload = buf::Buffer::copy_of(image);
    } else {
      buf::BufferBuilder b;
      b.reserve(frame.raw_payload_bytes);
      for (std::size_t i : carried) b.write(chunk_of(i));
      frame.payload = b.take();
    }
    return frame;
  }

  // Compress stage, in chunk order: a memo hit reuses the stored encoding,
  // a miss compresses the chunk, so the payload is identical hit or miss.
  frame.encoding = 1;
  struct Packed {
    ChunkEncoding enc = ChunkEncoding::Raw;
    std::span<const std::byte> body;  // memo entry, `fresh`, or the chunk
    std::vector<std::byte> fresh;     // a miss's LZ stream
  };
  std::vector<Packed> packed(carried.size());
  ChunkMemo* memo = owner != nullptr ? memo_ : nullptr;
  std::vector<std::uint32_t> computed;
  std::span<const std::uint32_t> crcs = digests;
  if (memo != nullptr && crcs.size() != n) {
    computed = checksum::crc32c_chunk_digests(image);
    crcs = computed;
  }
  std::vector<std::size_t> misses;
  for (std::size_t k = 0; k < carried.size(); ++k) {
    Packed& pk = packed[k];
    std::span<const std::byte> raw = chunk_of(carried[k]);
    const ChunkMemo::Entry* hit =
        memo != nullptr ? memo->find(crcs[carried[k]], raw) : nullptr;
    if (hit != nullptr) {
      pk.enc = hit->encoding;
      pk.body = hit->encoding == ChunkEncoding::Lz
                    ? std::span<const std::byte>(hit->body)
                    : raw;
      continue;
    }
    misses.push_back(k);
    if (auto lz = lz_compress_if_smaller(raw)) {
      pk.fresh = std::move(*lz);
      pk.enc = ChunkEncoding::Lz;
      pk.body = pk.fresh;
    } else {
      pk.body = raw;
    }
  }

  std::size_t total = 0;
  for (const Packed& pk : packed) total += kRecordHeader + pk.body.size();
  buf::BufferBuilder b;
  b.reserve(total);
  for (const Packed& pk : packed) append_record(b, pk.enc, pk.body);
  frame.payload = b.take();

  // Inserts come last: hit bodies above point into entries an insert could
  // replace.
  if (memo != nullptr)
    for (std::size_t k : misses) {
      auto [begin, end] =
          checksum::digest_chunk_range(image.size(), carried[k]);
      memo->insert(crcs[carried[k]], owner->slice(begin, end - begin),
                   packed[k].enc, std::move(packed[k].fresh));
    }
  return frame;
}

CodecFrame CodecPipeline::encode_full(std::span<const std::byte> image) const {
  return encode(image, {}, nullptr, 0);
}

CodecFrame CodecPipeline::encode(const buf::Buffer& image,
                                 std::span<const std::uint32_t> digests,
                                 const std::vector<std::uint32_t>* base_digests,
                                 std::uint64_t base_bytes) const {
  if (!cfg_.compress_on()) {
    // The raw full-map degenerate case must not byte-copy the image; build
    // the map first and alias when every chunk is carried.
    CodecFrame frame =
        start_frame(cfg_, image.bytes(), digests, base_digests, base_bytes);
    if (frame.map.all_present()) {
      frame.encoding = 0;
      frame.payload = image;
      return frame;
    }
  }
  return encode_chunks(image.bytes(), &image, digests, base_digests,
                       base_bytes);
}

CodecFrame CodecPipeline::encode_full(const buf::Buffer& image) const {
  return encode(image, {}, nullptr, 0);
}

buf::Buffer CodecPipeline::decode(const CodecFrame& frame,
                                  std::span<const std::byte> base) {
  const std::uint64_t full = frame.map.full_bytes;
  const std::size_t n = checksum::digest_chunk_count(full);
  if (frame.map.present.size() != n)
    throw pup::StreamError("codec frame: chunk map does not match image size");
  if (!frame.map.all_present() && base.size() != full)
    throw pup::StreamError("codec frame: delta without a matching base image");

  std::span<const std::byte> payload = frame.payload.bytes();
  std::size_t cursor = 0;
  buf::BufferBuilder out;
  out.reserve(full);
  for (std::size_t i = 0; i < n; ++i) {
    auto [begin, end] = checksum::digest_chunk_range(full, i);
    std::size_t raw_len = end - begin;
    if (!frame.map.present[i]) {
      out.write(base.subspan(begin, raw_len));
      continue;
    }
    if (frame.encoding == 0) {
      if (cursor + raw_len > payload.size())
        throw pup::StreamError("codec frame: raw payload truncated");
      out.write(payload.subspan(cursor, raw_len));
      cursor += raw_len;
    } else {
      if (cursor + kRecordHeader > payload.size())
        throw pup::StreamError("codec frame: record header truncated");
      std::uint8_t e = static_cast<std::uint8_t>(payload[cursor]);
      std::uint32_t len = 0;
      std::memcpy(&len, payload.data() + cursor + 1, sizeof len);
      cursor += kRecordHeader;
      if (cursor + len > payload.size())
        throw pup::StreamError("codec frame: record body truncated");
      std::span<const std::byte> body = payload.subspan(cursor, len);
      cursor += len;
      if (e == static_cast<std::uint8_t>(ChunkEncoding::Raw)) {
        if (body.size() != raw_len)
          throw pup::StreamError("codec frame: raw record length mismatch");
        out.write(body);
      } else if (e == static_cast<std::uint8_t>(ChunkEncoding::Lz)) {
        lz_decompress_into(body, out.extend(raw_len));
      } else {
        throw pup::StreamError("codec frame: unknown chunk encoding");
      }
    }
  }
  if (cursor != payload.size())
    throw pup::StreamError("codec frame: payload has trailing bytes");
  return out.take();
}

}  // namespace acr::ckpt
