// The L2 checkpoint blob format (the durable tier's bytes, tier.h).
//
// The paper's ACR keeps checkpoints in memory (its in-memory double
// checkpointing is what makes recovery fast; §1 contrasts this with
// disk-based checkpoint/restart whose cost "may be prohibitive"). The
// optional durable tier — the analogue of SCR's FILE level — stores each
// role's image as a self-validating blob:
//
//   [magic u32][version u32][epoch u64][iteration u64]
//   [payload length u64][payload bytes][fletcher64 of header+payload]
//
// Decodes verify the trailer digest, so storage-level corruption (the SDC
// story, continued on L2) is detected rather than restored.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ckpt/codec.h"
#include "ckpt/store.h"

namespace acr::ckpt {

/// Serialize an image and its coordinates into the self-validating v1
/// blob (header + payload + Fletcher-64 trailer).
std::vector<std::byte> encode_stored_image(const Image& ckpt);

/// Inverse of encode_stored_image; the result is valid. Throws
/// pup::StreamError on a bad magic, truncation, or trailer-digest mismatch.
Image decode_stored_image(std::span<const std::byte> blob);

/// Bytes encode_stored_image would produce for an image of `payload_bytes`.
std::size_t encoded_image_bytes(std::size_t payload_bytes);

/// A blob holding a codec DELTA frame instead of a full image: the
/// format-v2 extension grown for the staged codec pipeline. The payload
/// section is replaced by a chunk-map section (full size + per-chunk
/// present flags) followed by the frame's encoded payload; decoding back
/// to an Image additionally needs the base epoch's full image.
/// `base_epoch == 0` marks a v2 blob that is self-contained (a full-map
/// frame — e.g. a compressed full image) and decodes without a base.
struct DeltaBlob {
  std::uint64_t epoch = 0;
  std::uint64_t iteration = 0;
  std::uint64_t base_epoch = 0;
  CodecFrame frame;
};

/// Serialize a delta blob: v2 header + chunk map + payload + Fletcher-64
/// trailer. Self-validating like the v1 format.
std::vector<std::byte> encode_delta_image(const DeltaBlob& blob);

/// Bytes encode_delta_image produces for a given frame.
std::size_t encoded_delta_bytes(const CodecFrame& frame);

/// Version-dispatching decode: a v1 blob yields a full Image, a v2 blob
/// yields the delta. Throws pup::StreamError on corruption.
struct DecodedBlob {
  bool is_delta = false;
  Image full;       ///< valid when !is_delta
  DeltaBlob delta;  ///< valid when is_delta
};
DecodedBlob decode_any_image(std::span<const std::byte> blob);

}  // namespace acr::ckpt
