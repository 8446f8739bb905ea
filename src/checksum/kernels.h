// Hardware-dispatched, chunk-parallel data-plane kernels.
//
// Every hot byte loop of the checkpoint/message path funnels through here:
// the CRC32C frame-integrity check, the Fletcher buddy digests, and the
// xor diff fold of the parity delta path. Three mechanisms, all preserving
// bit-identical results:
//
//   1. Runtime CPU dispatch. CRC32C has an SSE4.2 instruction
//      (_mm_crc32_u64, ~1 cycle per 8 bytes) and a portable slicing-by-8
//      table fallback. The implementation is resolved once — cpuid, the
//      ACR_KERNEL_IMPL environment variable, or an explicit
//      set_kernel_impl() call (the driver's --kernel-impl flag) — and both
//      produce the same polynomial, so the choice is invisible to the
//      protocol.
//
//   2. Combine operators. crc32c_combine / fletcher64_combine /
//      fletcher32_combine compute digest(A ++ B) from digest(A), digest(B)
//      and |B|, so a large buffer can be digested as independent chunks and
//      the partials merged left-to-right. CRC combine is the GF(2)
//      shift-matrix trick (apply the "advance by |B| zero bytes" linear
//      operator to digest(A), xor digest(B)); Fletcher combine is modular
//      arithmetic on the two sums. Fletcher digests are word streams, so a
//      NON-final chunk must be word-aligned (4 bytes for Fletcher-64, 2 for
//      Fletcher-32); the chunked helpers below cut on fixed 256 KiB
//      boundaries, which satisfies both.
//
//   3. Chunk-parallel drivers. crc32c_chunked / fletcher64_chunked fan
//      fixed-size chunks across parallel::global() and merge in index
//      order. Chunk geometry depends only on the input size — never on the
//      worker count — so any thread count (including serial) produces the
//      same digest bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "parallel/pool.h"

namespace acr::checksum {

/// Which CRC32C inner loop to run. Auto resolves to Hw when the CPU has
/// SSE4.2, else Portable; the ACR_KERNEL_IMPL environment variable
/// ("portable" / "hw" / "auto") overrides Auto's default at startup, and
/// set_kernel_impl() (the driver's --kernel-impl flag) overrides both.
enum class KernelImpl { Auto, Portable, Hw };

/// Re-resolve the active kernels. Requesting Hw on a machine without
/// SSE4.2 is a fatal precondition error — callers (the driver) should
/// check hw_kernels_available() first and fail with a proper message.
void set_kernel_impl(KernelImpl impl);

/// The last requested policy (Auto until someone calls set_kernel_impl).
KernelImpl kernel_impl();

/// True when this build and CPU can run the SSE4.2 CRC32C kernel.
bool hw_kernels_available();

/// Name of the CRC32C inner loop actually running: "hw" or "portable".
const char* active_crc32c_kernel();

namespace kernels {

/// Raw CRC32C state update (reflected Castagnoli, no init/final xor)
/// through the dispatched implementation.
std::uint32_t crc32c_update(std::uint32_t state,
                            std::span<const std::byte> data);

/// Slicing-by-8 table kernel (always available).
std::uint32_t crc32c_update_portable(std::uint32_t state,
                                     std::span<const std::byte> data);

/// SSE4.2 kernel. Precondition: hw_kernels_available().
std::uint32_t crc32c_update_hw(std::uint32_t state,
                               std::span<const std::byte> data);

/// Word-wise xor accumulate: acc[i] ^= add[i] for i in [0, n). The inner
/// loop runs on uint64 words (memcpy-load, so alignment-safe) and
/// auto-vectorizes; the 1–7-byte tail is folded scalar.
inline void xor_fold_words(std::byte* acc, const std::byte* add,
                           std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, acc + i, 8);
    std::memcpy(&b, add + i, 8);
    a ^= b;
    std::memcpy(acc + i, &a, 8);
  }
  for (; i < n; ++i) acc[i] ^= add[i];
}

}  // namespace kernels

/// Chunk size of the chunk-parallel drivers. A multiple of 4 (Fletcher-64
/// word) and 2 (Fletcher-32 word), so every non-final chunk is word-aligned
/// for the combine operators. Exposed for the equivalence tests, and the
/// grid the ckpt codec pipeline's dirty-chunk maps live on.
inline constexpr std::size_t kDigestChunk = std::size_t{1} << 18;  // 256 KiB

/// Chunks of the kDigestChunk grid covering `len` bytes (0 for empty input).
/// The grid depends only on the input SIZE — never on thread count or
/// kernel choice — which is what makes every chunked digest, and every
/// delta chunk map derived from one, bit-identical across configurations.
inline std::size_t digest_chunk_count(std::size_t len) {
  return (len + kDigestChunk - 1) / kDigestChunk;
}

/// Byte range [begin, end) of chunk `i` of a `len`-byte buffer.
inline std::pair<std::size_t, std::size_t> digest_chunk_range(std::size_t len,
                                                              std::size_t i) {
  std::size_t begin = i * kDigestChunk;
  std::size_t end = begin + kDigestChunk < len ? begin + kDigestChunk : len;
  return {begin, end};
}

namespace kernels {

/// Shared chunk fan-out driver: compute `per_chunk(bytes_of_chunk_i)` for
/// every kDigestChunk-grid chunk of `data`, in parallel across
/// parallel::global() (inline when the pool is serial), results in chunk
/// order. This is the one copy of the fan-out/merge skeleton that was
/// previously duplicated across the chunked digest drivers and the agents'
/// post-pack digest path.
template <class T, class Fn>
std::vector<T> map_chunks(std::span<const std::byte> data, Fn&& per_chunk) {
  std::size_t n = digest_chunk_count(data.size());
  std::vector<T> part(n);
  auto eval = [&](std::size_t i) {
    auto [begin, end] = digest_chunk_range(data.size(), i);
    part[i] = per_chunk(data.subspan(begin, end - begin));
  };
  parallel::Pool& pool = parallel::global();
  if (pool.threads() == 0 || data.size() < 2 * kDigestChunk) {
    for (std::size_t i = 0; i < n; ++i) eval(i);
  } else {
    pool.for_each_index(n, eval);
  }
  return part;
}

/// In-order merge of per-chunk digest partials over a combine operator
/// `combine(acc, part, part_len)` — digest(A ++ B) from the partials. The
/// merge runs left-to-right in chunk order regardless of how the partials
/// were produced, so the result is thread-count invariant.
template <class T, class Fn>
T reduce_chunks(std::span<const T> part, std::size_t total_len, Fn&& combine) {
  T acc = part[0];
  for (std::size_t i = 1; i < part.size(); ++i) {
    auto [begin, end] = digest_chunk_range(total_len, i);
    acc = combine(acc, part[i], end - begin);
  }
  return acc;
}

}  // namespace kernels

/// Per-chunk CRC32C digests of `data` on the kDigestChunk grid (one digest
/// per chunk, chunk order). This is the codec pipeline's dirty-chunk
/// detector: two packs of identical state yield identical vectors, and a
/// chunk whose digest matches the base epoch's is not shipped.
std::vector<std::uint32_t> crc32c_chunk_digests(std::span<const std::byte> data);

/// Fold a per-chunk digest vector (as produced by crc32c_chunk_digests for
/// a `total_len`-byte buffer) back into the whole-buffer CRC32C — the
/// sparse-chunk-set combine: a delta receiver can verify a reconstructed
/// image by merging retained base-chunk digests with refreshed dirty-chunk
/// digests, without re-reading the clean bytes.
std::uint32_t crc32c_merge_chunk_digests(std::span<const std::uint32_t> digests,
                                         std::size_t total_len);

/// CRC32C of `data`, digested as kDigestChunk-sized chunks fanned across
/// parallel::global() and merged with crc32c_combine. Bit-identical to the
/// one-shot crc32c() at any thread count; falls back to one-shot when the
/// pool is serial or the input is small.
std::uint32_t crc32c_chunked(std::span<const std::byte> data);

/// Fletcher-64 of `data`, chunked and merged with fletcher64_combine.
/// Bit-identical to the one-shot fletcher64() at any thread count.
std::uint64_t fletcher64_chunked(std::span<const std::byte> data);

}  // namespace acr::checksum
