// Simulated L2 durable tier (burst buffer / parallel FS) behind the
// in-memory L1 redundancy schemes.
//
// The paper's ACR deliberately keeps checkpoints in replica memory (§1:
// disk cost "may be prohibitive"), but correlated bursts can destroy every
// in-memory copy of an epoch — buddy-pair loss, two nodes of a parity group,
// an exhausted spare pool — and then the only options are restarting from
// scratch or restoring from a slower durable level (the SCR / CRAFT
// multi-level story). DurableTier models that level: a store of
// self-validating blobs (vault.h: header + payload + Fletcher-64 trailer)
// keyed by (replica, node index, epoch), plus the level's cost model: one
// busy-until pipe per role that turns each write/read into a delay. The
// pipe is pure arithmetic over virtual time — the caller schedules the
// completion as a DES event — and the protocol around it (async flush
// chunking, fetch waves, scavenge on drain) lives in acr::Manager /
// acr::NodeAgent.
//
// Atomicity contract: a node's image appears here only via publish(),
// which the flush state machine calls once, after the LAST chunk's I/O
// completes. A node that dies mid-flush has published nothing — there is
// no half-written L2 image to fetch, the in-memory analogue of the
// temp-file+rename discipline on real disks. An *epoch* is fetchable only
// when every role published (newest_complete_epoch), the multi-file
// analogue.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "ckpt/vault.h"

namespace acr::ckpt {

/// Configuration for the durable tier. `bandwidth == 0` disables the tier
/// entirely — no DurableTier is built, and every tier code path in the
/// protocol is gated on its presence, which is what keeps no-L2 runs
/// byte-identical to the single-tier build.
struct TierConfig {
  /// Per-role drain bandwidth to L2 in bytes/second. 0 = tier disabled.
  double bandwidth = 0.0;
  /// Per-operation latency (seconds) charged before each chunk/fetch.
  double latency = 1e-4;
  /// Flush every k-th committed epoch (1 = every epoch). Larger values
  /// trade flush traffic for a longer rollback on L2 fetch.
  std::uint64_t flush_interval = 1;

  bool enabled() const { return bandwidth > 0.0; }
};

/// Flush I/O is issued in chunks of this size so it trickles underneath
/// protocol traffic instead of occupying the channel in one long burst.
inline constexpr std::uint64_t kTierFlushChunkBytes = 256 * 1024;

/// Longest delta chain an agent will grow in the tier: once the newest
/// blob's chain reaches this many links, the next flush ships a full (or
/// self-contained compressed) image. Bounds both the fetch read cost and
/// how many ancestors a single lost blob can orphan.
inline constexpr std::uint64_t kTierMaxChain = 8;

/// In-memory model of the durable store's contents, its per-role I/O pipe
/// and lifetime counters.
class DurableTier {
 public:
  struct Key {
    int replica = 0;
    int index = 0;
    std::uint64_t epoch = 0;
    bool operator<(const Key& o) const {
      if (epoch != o.epoch) return epoch < o.epoch;
      if (replica != o.replica) return replica < o.replica;
      return index < o.index;
    }
  };

  /// `roles_per_replica * replicas` publishes make an epoch complete.
  /// The pipe charges `config.latency + bytes / config.bandwidth` per
  /// operation, so write/read need an enabled config.
  DurableTier(const TierConfig& config, int replicas, int roles_per_replica);

  // --- I/O pipe ---------------------------------------------------------------
  /// Seconds from `now` until a write of `bytes` by role (replica, index)
  /// finishes: each role drains through its own pipe, so the operation
  /// starts at max(now, the role's busy-until) and then takes latency +
  /// bytes/bandwidth.
  double write(int replica, int index, double now, double bytes);
  /// Same for a read (fetch path). Reads share the role's pipe with writes.
  double read(int replica, int index, double now, double bytes);
  /// Account (without charging time for) the raw image bytes behind a
  /// write sequence — called once per flush with the decoded size.
  void note_raw_write(double bytes) { bytes_raw_written_ += bytes; }
  /// Bytes charged by write().
  double bytes_written() const { return bytes_written_; }
  /// Pre-codec image bytes the writes stood for. With the checkpoint codec
  /// off this tracks the raw size of every image offered to the pipe; with
  /// delta/compression on, bytes_written falls below it and the gap is the
  /// codec's saving at the durable tier.
  double bytes_raw_written() const { return bytes_raw_written_; }

  /// Install a node's image for an epoch (called once per flush, after the
  /// final chunk's modeled I/O completes). Re-publishing the same key (a
  /// restored node re-flushing its adopted image) is idempotent.
  void publish(int replica, int index, const Image& img);

  /// Install a pre-encoded blob (v1 or v2 bytes). The codec flush
  /// path encodes its delta/compressed blob up front — the same bytes that
  /// were charged chunk-by-chunk against the L2 channel — and publishes it
  /// verbatim here. `base_epoch != 0` declares a delta blob whose decode
  /// needs that ancestor; fetch() follows the chain and prune() keeps the
  /// ancestors of every kept delta alive.
  void publish_blob(int replica, int index, std::uint64_t epoch,
                    std::vector<std::byte> blob, std::uint64_t base_epoch);

  bool has(int replica, int index, std::uint64_t epoch) const;

  /// Decode (and integrity-check) a node's image for an epoch. A delta
  /// blob is reconstructed by recursively fetching its base chain and
  /// overlaying each frame; a broken chain (missing/corrupt ancestor)
  /// yields an invalid Image, pushing the fetch wave to an older epoch or
  /// scratch.
  Image fetch(int replica, int index, std::uint64_t epoch);

  /// Encoded size of the blob at a key, or 0 if absent.
  std::uint64_t blob_bytes(int replica, int index, std::uint64_t epoch) const;

  /// Total bytes a fetch of this key must read: the blob plus every blob
  /// on its base chain (== blob_bytes for a full image). This is what the
  /// L2 read of a fetch wave charges.
  std::uint64_t chain_bytes(int replica, int index, std::uint64_t epoch) const;

  /// Number of blobs on the base chain of a key (1 for a full image, 0 if
  /// absent). Agents cap this by forcing a periodic full flush.
  std::uint64_t chain_length(int replica, int index,
                             std::uint64_t epoch) const;

  /// Newest epoch for which EVERY role of EVERY replica has published —
  /// the only epochs a fetch wave may target. 0 = none.
  std::uint64_t newest_complete_epoch() const;

  /// Epochs with at least one blob present, ascending.
  std::vector<std::uint64_t> epochs_present() const;

  /// Drop blobs of epochs older than `keep_from_epoch` (keeps the boundary
  /// epoch itself) — EXCEPT ancestors that a kept delta blob's base chain
  /// still references, which must survive until their last dependant is
  /// pruned.
  void prune(std::uint64_t keep_from_epoch);

  // --- lifetime counters (RunSummary / tests) -------------------------------
  std::uint64_t publishes() const { return publishes_; }
  std::uint64_t fetches() const { return fetches_; }
  std::uint64_t bytes_published() const { return bytes_published_; }
  std::uint64_t delta_publishes() const { return delta_publishes_; }

 private:
  struct Blob {
    std::vector<std::byte> bytes;
    std::uint64_t base_epoch = 0;  ///< 0 = self-contained
  };

  Image decode_chain(int replica, int index, std::uint64_t epoch, int depth);
  double charge(int replica, int index, double now, double bytes);

  TierConfig config_;
  int replicas_;
  int roles_;
  /// busy_until_[replica * roles_ + index]: when the role's pipe frees up.
  std::vector<double> busy_until_;
  double bytes_written_ = 0.0;
  double bytes_raw_written_ = 0.0;
  std::map<Key, Blob> blobs_;
  std::uint64_t publishes_ = 0;
  std::uint64_t fetches_ = 0;
  std::uint64_t bytes_published_ = 0;
  std::uint64_t delta_publishes_ = 0;
};

}  // namespace acr::ckpt
