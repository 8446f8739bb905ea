// Shared digest-fold helpers.
//
// One home for the folding patterns that used to be repeated across the
// tree: the streaming checksum sinks (pack-time digest tee, sink.h) and
// the frame-integrity CRC of the reliable transport glue (rt/cluster.cpp).
#pragma once

#include <cstddef>
#include <span>

#include "buf/buffer.h"
#include "checksum/crc32c.h"
#include "checksum/fletcher.h"
#include "checksum/kernels.h"

namespace acr::checksum {

/// Streaming digest over the buf::Sink interface. Plugged into the PUP
/// Packer as a tee, it folds a digest *while* the byte stream is produced,
/// so a digested pack costs exactly one traversal of the application state.
/// `Digest` needs append(span)/digest()/reset(); bytes are counted here so
/// digests without their own size() (CRC32C) still report consumption.
template <typename Digest>
class FoldSink final : public buf::Sink {
 public:
  void write(std::span<const std::byte> bytes) override {
    d_.append(bytes);
    consumed_ += bytes.size();
  }
  auto digest() const { return d_.digest(); }
  std::size_t bytes_consumed() const { return consumed_; }
  void reset() {
    d_.reset();
    consumed_ = 0;
  }

 private:
  Digest d_;
  std::size_t consumed_ = 0;
};

/// One-call frame digest: the send-time / arrival-time integrity check of
/// the reliable transport, and anything else digesting a whole Buffer.
/// Chunk-parallel and hardware-dispatched via the kernel layer.
inline std::uint32_t buffer_crc32c(const buf::Buffer& b) {
  return crc32c_chunked(b.bytes());
}

}  // namespace acr::checksum
