// Staged checkpoint codec pipeline (pack → chunk-digest → delta →
// compress → redundancy-encode).
//
// The pre-codec data plane shipped every checkpoint as one monolithic
// Buffer: Packer → image → scheme. For iterative mini-apps most 256 KiB
// chunks of that image are bit-identical between epochs (the AutoCheck
// observation: the state that actually changes is far smaller than the
// address space), so the codec refactors the path into explicit stages on
// the checksum::kDigestChunk grid:
//
//   pack          pup::Packer, unchanged — its byte stream is a pure
//                 function of application state (chunk-stable boundaries,
//                 see pup.h), which is the invariant everything below
//                 leans on.
//   chunk-digest  checksum::crc32c_chunk_digests — one CRC32C per 256 KiB
//                 chunk.
//   delta         compare this epoch's digests against a BASE epoch's;
//                 only chunks whose digest changed are carried, described
//                 by a ChunkMap (full_bytes + per-chunk present flags).
//   compress      a deterministic LZ-class stage, per chunk on the same
//                 grid; a chunk that does not shrink is stored raw,
//                 flagged per chunk. A ChunkMemo shared by every agent of
//                 a run makes each distinct chunk compress once (replicas
//                 pack identical images).
//   redundancy-   the schemes: partner ships the CodecFrame instead of the
//   encode        image, rs folds diff ranges into parity, the L2 tier
//                 stores the frame as a vault v2 delta blob.
//
// Determinism: chunk geometry depends only on the image SIZE and the LZ
// stage is seed-free and greedy, so encode(image) is a pure function of
// the image and its base. A frame is self-describing enough to invert
// given the base bytes, and every consumer falls back to full images
// whenever its base is unavailable (post-restart, post-shrink, scheme
// change) — delta is an optimization, never a correctness dependency.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "buf/buffer.h"
#include "checksum/kernels.h"
#include "pup/pup.h"
#include "pup/stl.h"

namespace acr::ckpt {

enum class DeltaMode { Off, On };
enum class CompressMode { None, Lz };

const char* delta_mode_name(DeltaMode m);
const char* compress_mode_name(CompressMode m);

/// Codec policy, carried in AcrConfig. Both knobs default off, which keeps
/// every frame on the legacy full-image path byte-for-byte.
struct CodecConfig {
  DeltaMode delta = DeltaMode::Off;
  CompressMode compress = CompressMode::None;

  bool delta_on() const { return delta == DeltaMode::On; }
  bool compress_on() const { return compress == CompressMode::Lz; }
  bool enabled() const { return delta_on() || compress_on(); }
};

/// Which chunks of the checksum::kDigestChunk grid a frame carries.
struct ChunkMap {
  std::uint64_t full_bytes = 0;       ///< decoded image size
  std::vector<std::uint8_t> present;  ///< per chunk: 1 = carried in payload

  std::size_t chunks() const { return present.size(); }
  std::size_t present_chunks() const;
  bool all_present() const;
  /// Bytes the map itself occupies on the wire / in a vault blob.
  std::size_t map_bytes() const { return 16 + present.size(); }

  void pup(pup::Puper& p) {
    p | full_bytes;
    p | present;
  }
};

/// Per-chunk payload encodings. A compressed chunk that fails to shrink is
/// stored raw — decided per chunk, deterministically, by output size.
enum class ChunkEncoding : std::uint8_t { Raw = 0, Lz = 1 };

/// One encoded checkpoint frame: the chunk map plus the payload of the
/// present chunks. With encoding Raw and all chunks present the payload
/// aliases the source image (zero-copy); otherwise it is a fresh buffer of
/// [u8 chunk-encoding][u32 encoded-len][bytes] records in chunk order.
struct CodecFrame {
  ChunkMap map;
  std::uint8_t encoding = 0;  ///< 0 = raw concatenation, 1 = per-chunk records
  buf::Buffer payload;
  std::uint64_t raw_payload_bytes = 0;  ///< present-chunk bytes pre-compression

  /// Bytes this frame charges on the wire / against the L2 channel.
  std::uint64_t encoded_bytes() const { return map.map_bytes() + payload.size(); }
};

/// Content-addressed memo of the compress stage. ACR's replicas pack
/// bit-identical images, so the same dirty chunk is compressed for replica
/// 0's buddy frame and again for each replica's L2 flush; with one memo per
/// run, every encode after the first is a lookup.
///
/// Key: (CRC32C, length) of the chunk. A key match alone is never trusted:
/// find() memcmp's the chunk against the entry's source bytes, reached
/// through a WeakBuffer, so a colliding digest is a miss. The memo holds no
/// owner of any image; an entry dies with its source bytes (prune()).
/// Frames are identical hit or miss, so the memo never shows in output.
/// Not thread-safe: lookups and inserts run on the encoding thread, in
/// chunk order.
class ChunkMemo {
 public:
  struct Entry {
    buf::WeakBuffer source;  ///< the chunk bytes this entry encodes
    ChunkEncoding encoding = ChunkEncoding::Raw;
    std::vector<std::byte> body;  ///< LZ stream; empty for Raw
  };
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// The entry encoding `chunk` (whose CRC32C is `crc`), or nullptr. The
  /// pointer stays valid until the next insert() or prune().
  const Entry* find(std::uint32_t crc, std::span<const std::byte> chunk);

  /// Record the encoding of `chunk`, a view into a live image. Keeps only a
  /// WeakBuffer of it; replaces any entry under the same key.
  void insert(std::uint32_t crc, const buf::Buffer& chunk, ChunkEncoding enc,
              std::vector<std::byte> body);

  /// Drop every entry whose source bytes are gone. insert() also calls it
  /// whenever the memo has doubled since the last sweep.
  void prune();

  std::size_t size() const { return entries_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kMinSweep = 64;

  std::unordered_map<std::uint64_t, Entry> entries_;
  std::size_t sweep_at_ = kMinSweep;
  Stats stats_;
};

/// The staged encoder/decoder: its config plus an optional ChunkMemo, which
/// AcrRuntime owns and hands to every agent. decode() is static and needs
/// neither.
class CodecPipeline {
 public:
  CodecPipeline() = default;
  explicit CodecPipeline(CodecConfig cfg, ChunkMemo* memo = nullptr)
      : cfg_(cfg), memo_(memo) {}

  const CodecConfig& config() const { return cfg_; }

  /// Stage 2: per-chunk CRC32C digests of an image.
  static std::vector<std::uint32_t> digests(std::span<const std::byte> image) {
    return checksum::crc32c_chunk_digests(image);
  }

  /// Stages 3–4. `digests` must be digests(image). A null `base_digests`
  /// (or a base of a different size, or delta off) produces a full-map
  /// frame; otherwise chunks whose digest matches the base are dropped.
  /// The compress stage then encodes the surviving chunks when enabled.
  CodecFrame encode(std::span<const std::byte> image,
                    std::span<const std::uint32_t> digests,
                    const std::vector<std::uint32_t>* base_digests,
                    std::uint64_t base_bytes) const;

  /// Convenience: full-map frame (no delta), compression per config.
  CodecFrame encode_full(std::span<const std::byte> image) const;

  /// Buffer-taking overloads. When the frame degenerates to "raw, every
  /// chunk present" the payload aliases `image` instead of copying it —
  /// this is what makes the codec-off and full-fallback paths zero-copy.
  /// These are also the overloads that consult and fill the memo (an entry
  /// needs a Buffer to view its source bytes through).
  CodecFrame encode(const buf::Buffer& image,
                    std::span<const std::uint32_t> digests,
                    const std::vector<std::uint32_t>* base_digests,
                    std::uint64_t base_bytes) const;
  CodecFrame encode_full(const buf::Buffer& image) const;

  /// Inverse of encode: reconstruct the full image. `base` supplies the
  /// bytes of absent chunks and must be exactly map.full_bytes long unless
  /// the frame is full-map (then it is ignored). Throws pup::StreamError
  /// on a malformed frame or base-size mismatch.
  static buf::Buffer decode(const CodecFrame& frame,
                            std::span<const std::byte> base);

 private:
  CodecFrame encode_chunks(std::span<const std::byte> image,
                           const buf::Buffer* owner,
                           std::span<const std::uint32_t> digests,
                           const std::vector<std::uint32_t>* base_digests,
                           std::uint64_t base_bytes) const;

  CodecConfig cfg_;
  ChunkMemo* memo_ = nullptr;
};

// ---------------------------------------------------------------------------
// Deterministic LZ block codec (the compress stage's inner loop).
//
// Greedy LZSS over a 64 KiB window: a 32K-entry hash table keeps the most
// recent position of each 4-byte prefix (one candidate per hash, no
// chains); tokens are literal bytes and (offset, length) copies, eight per
// control byte. Seed-free and position-ordered, so output depends only on
// input bytes — identical across kernel impls and machines.
// Checkpoint images of iterative codes are full of zero runs and repeated
// lattice values; offset-1 matches turn those into ~3 bytes per 259.
// ---------------------------------------------------------------------------

/// Compress one block. The output is self-delimiting given `in.size()`.
std::vector<std::byte> lz_compress_block(std::span<const std::byte> in);

/// lz_compress_block(in) if that stream is strictly shorter than `in`,
/// else nullopt — the compress stage's question ("does this chunk
/// shrink?"), answered without finishing a stream that cannot.
std::optional<std::vector<std::byte>> lz_compress_if_smaller(
    std::span<const std::byte> in);

/// Decompress a block produced by lz_compress_block into exactly
/// `out.size()` bytes. Throws pup::StreamError on malformed input.
void lz_decompress_into(std::span<const std::byte> in,
                        std::span<std::byte> out);

/// Vector-returning form of lz_decompress_into.
std::vector<std::byte> lz_decompress_block(std::span<const std::byte> in,
                                           std::size_t out_len);

}  // namespace acr::ckpt
