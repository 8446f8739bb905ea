// Streaming checksum sinks over the buf::Sink interface.
//
// Plugged into the PUP Packer as a tee, these fold the buddy digest of
// §4.2's checksum mode *while* the checkpoint stream is produced, so a
// checksum-mode epoch costs exactly one traversal of the application state
// (pack and digest fused) instead of pack-then-rescan.
//
// Both sinks are instances of the shared FoldSink template (fold.h), which
// also backs the transport frame CRC.
#pragma once

#include "checksum/fold.h"

namespace acr::checksum {

/// Fletcher-64 folding sink; digest() matches the one-shot fletcher64()
/// over everything written, for any write granularity.
using Fletcher64Sink = FoldSink<Fletcher64>;

/// CRC32-C folding sink (the §4.2 ablation's alternative digest).
using Crc32cSink = FoldSink<Crc32c>;

}  // namespace acr::checksum
