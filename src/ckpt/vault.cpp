#include "ckpt/vault.h"

#include <cstring>
#include <string>
#include <vector>

#include "checksum/fletcher.h"

namespace acr::ckpt {

namespace {

constexpr std::uint32_t kMagic = 0xAC0C4B9Du;
constexpr std::uint32_t kVersion = 1;
constexpr std::uint32_t kDeltaVersion = 2;

struct Header {
  std::uint32_t magic;
  std::uint32_t version;
  std::uint64_t epoch;
  std::uint64_t iteration;
  std::uint64_t payload_bytes;
};

/// v2 extension fields between the Header and the payload: the chunk-map
/// section of the codec pipeline. `payload_bytes` in the shared Header is
/// the FRAME payload size (encoded chunks), not the decoded image size.
struct DeltaHeader {
  std::uint64_t base_epoch;
  std::uint64_t full_bytes;
  std::uint64_t n_chunks;
  std::uint8_t encoding;
};

void append_bytes(std::vector<std::byte>& out, const void* p, std::size_t n) {
  if (n == 0) return;
  std::size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, p, n);
}

}  // namespace

std::size_t encoded_image_bytes(std::size_t payload_bytes) {
  return sizeof(Header) + payload_bytes + sizeof(std::uint64_t);
}

std::vector<std::byte> encode_stored_image(const Image& ckpt) {
  Header h{kMagic, kVersion, ckpt.epoch, ckpt.iteration,
           static_cast<std::uint64_t>(ckpt.image.size())};

  checksum::Fletcher64 digest;
  digest.append(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(&h), sizeof h));
  digest.append(ckpt.image.bytes());
  std::uint64_t trailer = digest.digest();

  std::vector<std::byte> blob(encoded_image_bytes(ckpt.image.size()));
  std::byte* cursor = blob.data();
  std::memcpy(cursor, &h, sizeof h);
  cursor += sizeof h;
  std::memcpy(cursor, ckpt.image.bytes().data(), ckpt.image.size());
  cursor += ckpt.image.size();
  std::memcpy(cursor, &trailer, sizeof trailer);
  return blob;
}

Image decode_stored_image(std::span<const std::byte> blob) {
  Header h{};
  if (blob.size() < sizeof h)
    throw pup::StreamError("stored checkpoint image is truncated");
  std::memcpy(&h, blob.data(), sizeof h);
  if (h.magic != kMagic)
    throw pup::StreamError("stored checkpoint image has a bad header");
  if (h.version != kVersion)
    throw pup::StreamError("stored checkpoint image has unsupported version " +
                           std::to_string(h.version));
  if (blob.size() <
      sizeof h + h.payload_bytes + sizeof(std::uint64_t))
    throw pup::StreamError("stored checkpoint image is truncated");

  std::vector<std::byte> payload(static_cast<std::size_t>(h.payload_bytes));
  std::memcpy(payload.data(), blob.data() + sizeof h, payload.size());
  std::uint64_t trailer = 0;
  std::memcpy(&trailer, blob.data() + sizeof h + payload.size(),
              sizeof trailer);

  checksum::Fletcher64 digest;
  digest.append(std::span<const std::byte>(
      reinterpret_cast<const std::byte*>(&h), sizeof h));
  digest.append(payload);
  if (digest.digest() != trailer)
    throw pup::StreamError(
        "stored checkpoint image failed its integrity check");

  return Image{true, h.epoch, h.iteration,
               pup::Checkpoint(std::move(payload))};
}

std::size_t encoded_delta_bytes(const CodecFrame& frame) {
  return sizeof(Header) + sizeof(DeltaHeader) + frame.map.present.size() +
         frame.payload.size() + sizeof(std::uint64_t);
}

std::vector<std::byte> encode_delta_image(const DeltaBlob& blob) {
  const CodecFrame& f = blob.frame;
  Header h{kMagic, kDeltaVersion, blob.epoch, blob.iteration,
           static_cast<std::uint64_t>(f.payload.size())};
  // Zero-init first so the struct's trailing padding bytes are
  // deterministic — they are digested and written out.
  DeltaHeader dh{};
  dh.base_epoch = blob.base_epoch;
  dh.full_bytes = f.map.full_bytes;
  dh.n_chunks = static_cast<std::uint64_t>(f.map.present.size());
  dh.encoding = f.encoding;

  std::vector<std::byte> out;
  out.reserve(encoded_delta_bytes(f));
  append_bytes(out, &h, sizeof h);
  append_bytes(out, &dh, sizeof dh);
  append_bytes(out, f.map.present.data(), f.map.present.size());
  append_bytes(out, f.payload.bytes().data(), f.payload.size());

  checksum::Fletcher64 digest;
  digest.append(out);
  std::uint64_t trailer = digest.digest();
  append_bytes(out, &trailer, sizeof trailer);
  return out;
}

DecodedBlob decode_any_image(std::span<const std::byte> blob) {
  Header h{};
  if (blob.size() < sizeof h)
    throw pup::StreamError("stored checkpoint blob is truncated");
  std::memcpy(&h, blob.data(), sizeof h);
  if (h.magic != kMagic)
    throw pup::StreamError("stored checkpoint blob has a bad header");

  DecodedBlob out;
  if (h.version == kVersion) {
    out.is_delta = false;
    out.full = decode_stored_image(blob);
    return out;
  }
  if (h.version != kDeltaVersion)
    throw pup::StreamError("stored checkpoint blob has unsupported version " +
                           std::to_string(h.version));

  DeltaHeader dh{};
  std::size_t need = sizeof h + sizeof dh;
  if (blob.size() < need)
    throw pup::StreamError("delta checkpoint blob is truncated");
  std::memcpy(&dh, blob.data() + sizeof h, sizeof dh);
  need += dh.n_chunks + h.payload_bytes + sizeof(std::uint64_t);
  if (blob.size() < need)
    throw pup::StreamError("delta checkpoint blob is truncated");

  std::size_t body = need - sizeof(std::uint64_t);
  std::uint64_t trailer = 0;
  std::memcpy(&trailer, blob.data() + body, sizeof trailer);
  checksum::Fletcher64 digest;
  digest.append(blob.subspan(0, body));
  if (digest.digest() != trailer)
    throw pup::StreamError(
        "delta checkpoint blob failed its integrity check");

  out.is_delta = true;
  out.delta.epoch = h.epoch;
  out.delta.iteration = h.iteration;
  out.delta.base_epoch = dh.base_epoch;
  CodecFrame& f = out.delta.frame;
  f.map.full_bytes = dh.full_bytes;
  f.encoding = dh.encoding;
  const std::byte* map = blob.data() + sizeof h + sizeof dh;
  f.map.present.resize(static_cast<std::size_t>(dh.n_chunks));
  std::memcpy(f.map.present.data(), map, f.map.present.size());
  f.payload = buf::Buffer::copy_of(
      blob.subspan(sizeof h + sizeof dh + f.map.present.size(),
                   static_cast<std::size_t>(h.payload_bytes)));
  return out;
}

}  // namespace acr::ckpt
