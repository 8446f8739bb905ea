// Wire protocol between ACR node agents and the job manager.
#pragma once

#include <cstdint>
#include <vector>

#include "pup/pup.h"
#include "pup/stl.h"

namespace acr::wire {

/// Message tags on the service channel.
enum Tag : int {
  // Manager -> agents (broadcast down the per-replica tree).
  kCheckpointRequest = 100,  ///< begin quiesce (Fig. 3 phase 2)
  kIterationDecided,         ///< checkpoint iteration C (phase 3)
  kPackCommand,              ///< all ready: serialize state (phase 4)
  kCommit,                   ///< comparison passed: promote + resume
  kRollback,                 ///< restore the verified epoch (SDC or hard)
  kHalt,                     ///< weak scheme: crashed replica waits
  kAbortConsensus,           ///< failure interrupted a checkpoint
  kSendVerifiedToBuddy,      ///< strong recovery: ship verified ckpt to buddy
  kSendCandidateToBuddy,     ///< medium/weak recovery: ship fresh ckpt
  kResume,                   ///< plain resume (after recovery bookkeeping)
  kFlushCommand,             ///< durable tier: drain your verified image to L2
  kFetchFromDurable,         ///< durable tier: restore from the L2 epoch
  kRsRebuildSend,            ///< rs recovery: survivor, feed every spare

  // Agent -> agent.
  kTreeProgress = 200,  ///< max-progress reduction up the tree
  kTreeReady,           ///< readiness reduction up the tree
  kTreeVerdict,         ///< comparison verdict reduction (replica 1)
  kBuddyCheckpoint,     ///< full checkpoint bytes (compare or restore)
  kBuddyChecksum,       ///< Fletcher-64 digest of the checkpoint
  kHeartbeat,
  kBuddyDeltaCheckpoint,  ///< codec frame: dirty chunks of the buddy image
  kBuddyNeedFull,         ///< receiver lost the delta base; re-send full
  kRsParityChunk,         ///< rs: data chunk for one of the receiver's stripes
  kRsParityDeltaChunk,    ///< rs codec: diff of a chunk's dirty ranges
  kRsRebuildPiece,        ///< rs: survivor's image + parity blocks for a spare

  // Agent -> manager.
  kReplicaQuiesced = 300,  ///< root: subtree fully paused, max progress known
  kReplicaReady,           ///< root: all tasks at C
  kReplicaVerdict,         ///< replica-1 root: aggregated compare verdict
  kSuspectDead,            ///< buddy heartbeat timed out
  kNodeDone,               ///< all tasks on this node finished the app
  kPackDone,               ///< local checkpoint serialized (for recovery flows)
  kRestoreDone,            ///< node restored + resumed
  kNeedBuddyRestore,       ///< rollback ordered but no local checkpoint held
  kFlushDone,              ///< node's verified image is published on L2
  kFetchFailed,            ///< L2 blob missing/corrupt; fetch wave must fall back
  kRsRebuildImpossible,    ///< rs rebuild cannot complete; fall down the ladder
};

/// Reduction / broadcast payloads. All pup-able.
struct CkptRequestMsg {
  std::uint64_t epoch = 0;
  std::uint8_t participants = 3;  ///< bit 0: replica 0, bit 1: replica 1
  void pup(pup::Puper& p) {
    p | epoch;
    p | participants;
  }
};

struct ProgressMsg {
  std::uint64_t epoch = 0;
  std::uint64_t max_progress = 0;
  void pup(pup::Puper& p) {
    p | epoch;
    p | max_progress;
  }
};

struct IterationMsg {
  std::uint64_t epoch = 0;
  std::uint64_t iteration = 0;
  void pup(pup::Puper& p) {
    p | epoch;
    p | iteration;
  }
};

struct ReadyMsg {
  std::uint64_t epoch = 0;
  void pup(pup::Puper& p) { p | epoch; }
};

struct VerdictMsg {
  std::uint64_t epoch = 0;
  std::uint8_t match = 1;
  std::uint64_t mismatched_nodes = 0;
  void pup(pup::Puper& p) {
    p | epoch;
    p | match;
    p | mismatched_nodes;
  }
};

struct EpochMsg {
  std::uint64_t epoch = 0;
  void pup(pup::Puper& p) { p | epoch; }
};

/// Restore command: which checkpoint epoch to restore and which restore
/// barrier (wave) the resulting kRestoreDone belongs to. Barrier ids let
/// the manager re-issue a rollback wave (after overlapping failures)
/// without stale acknowledgements from the abandoned wave corrupting the
/// new barrier's count.
struct RestoreCmdMsg {
  std::uint64_t epoch = 0;
  std::uint64_t barrier = 0;
  void pup(pup::Puper& p) {
    p | epoch;
    p | barrier;
  }
};

struct BarrierMsg {
  std::uint64_t barrier = 0;
  void pup(pup::Puper& p) { p | barrier; }
};

struct ChecksumMsg {
  std::uint64_t epoch = 0;
  std::uint64_t digest = 0;
  std::uint64_t full_bytes = 0;  ///< size of the checkpoint the digest covers
  void pup(pup::Puper& p) {
    p | epoch;
    p | digest;
    p | full_bytes;
  }
};

/// Buddy checkpoint header. The image itself does NOT travel inside the
/// packed payload: it rides as the message's Buffer attachment, aliasing
/// the sender's stored checkpoint (zero-copy; the wire cost is charged via
/// bytes_on_wire).
struct CheckpointMsg {
  std::uint64_t epoch = 0;
  std::uint64_t iteration = 0;
  std::uint8_t purpose = 0;   ///< 0: compare, 1: restore
  std::uint64_t barrier = 0;  ///< restore barrier id (purpose=1 only)
  void pup(pup::Puper& p) {
    p | epoch;
    p | iteration;
    p | purpose;
    p | barrier;
  }
};

/// Order to a surviving RS-group member: ship one rebuild piece (image +
/// ALL parity blocks) to EACH promoted spare in `dead_indices`, under the
/// given restore barrier. One command covers the group's whole dead set —
/// the multi-loss solve happens at each spare independently.
struct RsRebuildCmd {
  std::vector<std::int32_t> dead_indices;
  std::uint64_t barrier = 0;
  void pup(pup::Puper& p) {
    p | dead_indices;
    p | barrier;
  }
};

/// Order to drain the verified image of `epoch` to the durable tier.
/// `urgent` marks drain/scavenge flushes (--halt-after, burst scavenge):
/// the completion is counted as a scavenge rather than a background flush.
struct FlushCmdMsg {
  std::uint64_t epoch = 0;
  std::uint8_t urgent = 0;
  void pup(pup::Puper& p) {
    p | epoch;
    p | urgent;
  }
};

/// Flush completion report. `scavenged` echoes the command's urgency when
/// the final chunk actually published an image (vs. an already-present
/// blob answered from the tier's index).
struct FlushDoneMsg {
  std::uint64_t epoch = 0;
  std::uint8_t scavenged = 0;
  void pup(pup::Puper& p) {
    p | epoch;
    p | scavenged;
  }
};

/// Buddy DELTA checkpoint header (codec pipeline, --ckpt-delta=on). Only
/// the dirty chunks of the sender's image travel, as the attachment; the
/// chunk map says which. The receiver overlays them on its cached copy of
/// the sender's base-epoch image to reconstruct the full image EXACTLY, so
/// the downstream compare/restore paths are untouched. `encoding` mirrors
/// ckpt::CodecFrame::encoding (0 = raw concat, 1 = per-chunk records).
struct DeltaCheckpointMsg {
  std::uint64_t epoch = 0;
  std::uint64_t iteration = 0;
  std::uint64_t base_epoch = 0;  ///< receiver must hold this cached image
  std::uint64_t full_bytes = 0;  ///< reconstructed image size
  std::uint8_t purpose = 0;      ///< 0: compare (restore always ships full)
  std::uint8_t encoding = 0;
  std::vector<std::uint8_t> present;  ///< chunk map, 1 = chunk in payload
  void pup(pup::Puper& p) {
    p | epoch;
    p | iteration;
    p | base_epoch;
    p | full_bytes;
    p | purpose;
    p | encoding;
    p | present;
  }
};

/// Receiver -> sender: the delta base you assumed is gone (restart, size
/// change, decode failure). Re-ship epochs > `epoch` as full images.
struct NeedFullMsg {
  std::uint64_t epoch = 0;  ///< last epoch the receiver holds (0 = none)
  void pup(pup::Puper& p) { p | epoch; }
};

struct SuspectMsg {
  std::int32_t replica = 0;
  std::int32_t node_index = 0;
  void pup(pup::Puper& p) {
    p | replica;
    p | node_index;
  }
};

}  // namespace acr::wire
