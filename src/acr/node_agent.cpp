#include "acr/node_agent.h"

#include <algorithm>
#include <utility>

#include "checksum/sink.h"
#include "common/logging.h"
#include "pup/checker.h"

namespace acr {

namespace {
constexpr std::uint8_t kPurposeCompare = 0;
constexpr std::uint8_t kPurposeRestore = 1;
}  // namespace

NodeAgent::NodeAgent(AcrEnv env, rt::Node& node)
    : env_(env),
      node_(node),
      replica_(node.replica()),
      index_(node.node_index()),
      num_nodes_(env.cluster->nodes_per_replica()) {
  ACR_REQUIRE(node.assigned(), "agent requires an assigned node");
  done_.assign(static_cast<std::size_t>(node.num_tasks()), false);
  make_rs();
}

namespace {

// Wire-size discount for the verify-on-rebuild integrity tags: on a real
// wire the CRC32C digests ride the frame header (the same charging rule
// as the consensus-abort epoch tag), so their pup records — a tag+count
// header per record plus the element bytes — are not charged as payload.
// This keeps the parity wire model, and the saved driver baselines,
// byte-identical to the pre-digest protocol.
constexpr std::size_t kPupRecordHeader =
    sizeof(std::uint8_t) + sizeof(std::uint64_t);
constexpr std::size_t kDigestScalarWireBytes =
    kPupRecordHeader + sizeof(std::uint32_t);
std::size_t digest_vector_wire_bytes(std::size_t n) {
  std::size_t size_record = kPupRecordHeader + sizeof(std::uint64_t);
  std::size_t array_record =
      n > 0 ? kPupRecordHeader + n * sizeof(std::uint32_t) : 0;
  return size_record + array_record;
}

}  // namespace

void NodeAgent::make_rs() {
  if (env_.config->redundancy != ckpt::Scheme::Rs) return;
  ckpt::RsScheme::Hooks hooks;
  // The verify-on-rebuild CRC32C tags ride the frame header (see
  // kDigestScalarWireBytes): they are discounted from the modelled payload.
  hooks.send_chunk = [this](int dst, const ckpt::RsChunkMsg& msg,
                            buf::Buffer chunk) {
    ckpt::RsChunkMsg m = msg;
    buf::Buffer pk = rt::pack_payload(m);
    double wire = static_cast<double>(rt::kMessageHeaderBytes + pk.size() +
                                      chunk.size() - kDigestScalarWireBytes);
    send_to_agent(replica_, dst, wire::kRsParityChunk, std::move(pk), wire,
                  std::move(chunk));
  };
  hooks.send_delta_chunk = [this](int dst, const ckpt::RsDeltaChunkMsg& msg,
                                  buf::Buffer payload) {
    ckpt::RsDeltaChunkMsg m = msg;
    buf::Buffer pk = rt::pack_payload(m);
    double wire = static_cast<double>(rt::kMessageHeaderBytes + pk.size() +
                                      payload.size() - kDigestScalarWireBytes);
    send_to_agent(replica_, dst, wire::kRsParityDeltaChunk, std::move(pk),
                  wire, std::move(payload));
  };
  hooks.send_piece = [this](int dst, const ckpt::RsPieceMsg& msg,
                            buf::Buffer image) {
    ckpt::RsPieceMsg m = msg;
    buf::Buffer pk = rt::pack_payload(m);
    double wire = static_cast<double>(
        rt::kMessageHeaderBytes + pk.size() + image.size() -
        digest_vector_wire_bytes(m.member_digests.size()));
    send_to_agent(replica_, dst, wire::kRsRebuildPiece, std::move(pk), wire,
                  std::move(image));
  };
  hooks.report_impossible = [this](std::uint64_t barrier) {
    wire::BarrierMsg msg{barrier};
    send_to_manager(wire::kRsRebuildImpossible, rt::pack_payload(msg));
  };
  hooks.restore_rebuilt = [this](ckpt::Image img, std::uint64_t barrier) {
    restore_from(std::move(img), "rs rebuild", barrier);
  };
  rs_ = std::make_unique<ckpt::RsScheme>(
      parity_groups(*env_.config, num_nodes_), index_, env_.config->rs_parity,
      env_.config->codec, std::move(hooks));
}

std::vector<int> NodeAgent::child_indices() const {
  std::vector<int> kids;
  for (int c : {2 * index_ + 1, 2 * index_ + 2})
    if (c < num_nodes_) kids.push_back(c);
  return kids;
}

double NodeAgent::now() const { return env_.cluster->engine().now(); }

void NodeAgent::send_to_manager(int tag, buf::Buffer payload) {
  env_.cluster->send_to_manager(replica_, index_, tag, std::move(payload));
}

void NodeAgent::send_to_agent(int replica, int node_index, int tag,
                              buf::Buffer payload, double bytes_on_wire,
                              buf::Buffer attachment) {
  env_.cluster->send_service(replica_, index_, replica, node_index, tag,
                             std::move(payload), bytes_on_wire,
                             std::move(attachment));
}

void NodeAgent::start() {
  peers_.clear();
  peers_.push_back(Peer{1 - replica_, index_, now(), false});  // buddy
  if (!is_root()) peers_.push_back(Peer{replica_, parent_index(), now(), false});
  for (int c : child_indices()) peers_.push_back(Peer{replica_, c, now(), false});
  double period = env_.config->heartbeat_period;
  std::uint64_t inc = ++heartbeat_incarnation_;
  env_.cluster->engine().schedule_after(period, [this, inc]() {
    if (heartbeat_incarnation_ == inc) heartbeat_tick();
  });
  env_.cluster->engine().schedule_after(period * 1.5, [this, inc]() {
    if (heartbeat_incarnation_ == inc) watchdog_tick();
  });
}

void NodeAgent::rebind_role() {
  if (replica_ == node_.replica() && index_ == node_.node_index()) return;
  replica_ = node_.replica();
  index_ = node_.node_index();
  num_children_ = static_cast<int>(child_indices().size());
  make_rs();  // the rs layout keys chunk routing off the node index
  invalidate_codec_bases();  // bases belong to the role, not the hardware
}

void NodeAgent::reset_for_restart() {
  supersede_flush(/*trace=*/false);  // the store is about to be wiped
  phase_ = Phase::Idle;
  epoch_ = 0;
  progress_stash_.clear();
  last_restore_barrier_ = 0;
  awaiting_go_ = false;
  node_.set_gated(false);
  store_.reset();
  if (rs_) rs_->reset();
  invalidate_codec_bases();
  pack_complete_ = false;
  have_remote_ = false;
  for (std::set<int>& in : reported_) in.clear();
  refresh_done_from_tasks();
  start();  // rebuilds the peer table, bumps heartbeat incarnation
}

void NodeAgent::quash_restores_through(std::uint64_t barrier) {
  last_restore_barrier_ = std::max(last_restore_barrier_, barrier);
}

void NodeAgent::heartbeat_tick() {
  if (!node_.alive()) return;
  // One payload for every peer: the messages share its (immutable) bytes.
  wire::EpochMsg beat{epoch_};
  buf::Buffer payload = rt::pack_payload(beat);
  for (const Peer& p : peers_)
    send_to_agent(p.replica, p.node_index, wire::kHeartbeat, payload);
  std::uint64_t inc = heartbeat_incarnation_;
  env_.cluster->engine().schedule_after(
      env_.config->heartbeat_period, [this, inc]() {
        if (heartbeat_incarnation_ == inc) heartbeat_tick();
      });
}

void NodeAgent::watchdog_tick() {
  if (!node_.alive()) return;
  for (Peer& p : peers_) {
    if (!p.suspected && now() - p.last_heard > env_.config->heartbeat_timeout) {
      p.suspected = true;
      wire::SuspectMsg suspect{p.replica, p.node_index};
      send_to_manager(wire::kSuspectDead, rt::pack_payload(suspect));
    }
  }
  std::uint64_t inc = heartbeat_incarnation_;
  env_.cluster->engine().schedule_after(
      env_.config->heartbeat_period, [this, inc]() {
        if (heartbeat_incarnation_ == inc) watchdog_tick();
      });
}

// ---------------------------------------------------------------------------
// Progress & completion hooks (Fig. 3 phases 1-3).
// ---------------------------------------------------------------------------

rt::ProgressDecision NodeAgent::on_progress(int slot, std::uint64_t iters) {
  (void)slot;
  switch (phase_) {
    case Phase::Idle:
      return rt::ProgressDecision::Continue;
    case Phase::Quiesce:
      // Every task pauses at its first report after the request — i.e. at
      // the end of the iteration it was already inside. The reduction
      // contribution was computed from those in-flight iterations when the
      // request arrived, so no task can pause beyond it.
      return rt::ProgressDecision::Pause;
    case Phase::RunToIteration:
      if (iters >= decided_iteration_) {
        env_.cluster->engine().schedule_after(0.0, [this, e = epoch_]() {
          if (phase_ == Phase::RunToIteration && epoch_ == e) check_ready();
        });
        return rt::ProgressDecision::Pause;
      }
      return rt::ProgressDecision::Continue;
    case Phase::AwaitVerdict:
      // Semi-blocking mode: the snapshot is sealed; the application runs on
      // under the in-flight comparison.
      if (env_.config->semi_blocking && !single_replica_ckpt_)
        return rt::ProgressDecision::Continue;
      return rt::ProgressDecision::Pause;
    case Phase::Halted:
    case Phase::Packing:
      // No task should be running here; pause defensively.
      return rt::ProgressDecision::Pause;
  }
  return rt::ProgressDecision::Continue;
}

void NodeAgent::on_task_done(int slot) {
  done_.at(static_cast<std::size_t>(slot)) = true;
  report_node_done_if_complete();
  // A done task never reports progress again; re-evaluate any readiness
  // wait that counts it.
  if (phase_ == Phase::RunToIteration) check_ready();
}

void NodeAgent::report_node_done_if_complete() {
  if (node_done_reported_) return;
  if (std::all_of(done_.begin(), done_.end(), [](bool b) { return b; })) {
    node_done_reported_ = true;
    wire::EpochMsg msg{epoch_};
    send_to_manager(wire::kNodeDone, rt::pack_payload(msg));
  }
}

void NodeAgent::refresh_done_from_tasks() {
  done_.assign(static_cast<std::size_t>(node_.num_tasks()), false);
  node_done_reported_ = false;
}

// ---------------------------------------------------------------------------
// Message dispatch.
// ---------------------------------------------------------------------------

void NodeAgent::on_service_message(const rt::Message& m) {
  // Any traffic from a watched peer proves it alive — and clears a standing
  // suspicion (under network loss, a delayed heartbeat burst must not leave
  // a live peer permanently suspected).
  for (Peer& p : peers_) {
    if (m.src_replica == p.replica && m.src.node_index == p.node_index) {
      p.last_heard = now();
      p.suspected = false;
      break;
    }
  }

  switch (m.tag) {
    case wire::kHeartbeat:
      return;  // freshness recorded above
    case wire::kCheckpointRequest:
      return handle_checkpoint_request(
          rt::unpack_payload<wire::CkptRequestMsg>(m));
    case wire::kIterationDecided:
      return handle_iteration_decided(
          rt::unpack_payload<wire::IterationMsg>(m));
    case wire::kPackCommand:
      return handle_pack_command(rt::unpack_payload<wire::EpochMsg>(m));
    case wire::kCommit:
      return handle_commit(rt::unpack_payload<wire::EpochMsg>(m));
    case wire::kRollback:
      return handle_rollback(rt::unpack_payload<wire::RestoreCmdMsg>(m));
    case wire::kHalt:
      return handle_halt();
    case wire::kAbortConsensus:
      return handle_abort(rt::unpack_payload<wire::EpochMsg>(m));
    case wire::kResume:
      return handle_resume();
    case wire::kSendVerifiedToBuddy:
      return handle_send_to_buddy(m, /*candidate=*/false);
    case wire::kSendCandidateToBuddy:
      return handle_send_to_buddy(m, /*candidate=*/true);
    case wire::kFlushCommand:
      return handle_flush_command(rt::unpack_payload<wire::FlushCmdMsg>(m));
    case wire::kFetchFromDurable:
      return handle_fetch_from_durable(
          rt::unpack_payload<wire::RestoreCmdMsg>(m));
    case wire::kRsRebuildSend: {
      auto cmd = rt::unpack_payload<wire::RsRebuildCmd>(m);
      if (rs_) {
        std::vector<int> dead(cmd.dead_indices.begin(),
                              cmd.dead_indices.end());
        rs_->on_rebuild_request(dead, cmd.barrier, store_.verified());
      }
      return;
    }
    case wire::kTreeProgress:
      return handle_tree_progress(rt::unpack_payload<wire::ProgressMsg>(m),
                                  m.src.node_index);
    case wire::kTreeReady:
      return handle_tree_ready(rt::unpack_payload<wire::ReadyMsg>(m),
                               m.src.node_index);
    case wire::kTreeVerdict:
      return handle_tree_verdict(rt::unpack_payload<wire::VerdictMsg>(m),
                                 m.src.node_index);
    case wire::kBuddyCheckpoint:
      return handle_buddy_checkpoint(m);
    case wire::kBuddyChecksum:
      return handle_buddy_checksum(m);
    case wire::kBuddyDeltaCheckpoint:
      return handle_buddy_delta_checkpoint(m);
    case wire::kBuddyNeedFull:
      return handle_buddy_need_full(rt::unpack_payload<wire::NeedFullMsg>(m));
    case wire::kRsParityChunk: {
      auto msg = rt::unpack_payload<ckpt::RsChunkMsg>(m);
      if (rs_) rs_->on_chunk(m.src.node_index, msg, m.attachment);
      return;
    }
    case wire::kRsParityDeltaChunk: {
      auto msg = rt::unpack_payload<ckpt::RsDeltaChunkMsg>(m);
      if (rs_) rs_->on_delta_chunk(m.src.node_index, msg, m.attachment);
      return;
    }
    case wire::kRsRebuildPiece: {
      auto msg = rt::unpack_payload<ckpt::RsPieceMsg>(m);
      // Gate before intake: a stale piece could report the (abandoned)
      // rebuild impossible to the manager.
      if (msg.barrier <= last_restore_barrier_) return;
      if (rs_) rs_->on_piece(m.src.node_index, msg, m.attachment);
      return;
    }
    default:
      log_warn("acr.agent") << "unknown service tag " << m.tag;
  }
}

// ---------------------------------------------------------------------------
// Checkpoint consensus (Fig. 3).
// ---------------------------------------------------------------------------

void NodeAgent::handle_checkpoint_request(const wire::CkptRequestMsg& msg) {
  // Epochs only move forward: a request at or below the current epoch is a
  // duplicate or a straggler from an aborted round, never a new consensus.
  if (msg.epoch <= epoch_) return;
  epoch_ = msg.epoch;
  single_replica_ckpt_ = msg.participants != 3;
  phase_ = Phase::Quiesce;
  pack_complete_ = false;
  have_remote_ = false;
  subtree_match_ = true;
  subtree_mismatches_ = 0;
  num_children_ = static_cast<int>(child_indices().size());
  for (std::set<int>& in : reported_) in.clear();

  // Fig. 3 phase 2: the node's contribution to the max-progress reduction.
  // A running task is somewhere inside iteration progress+1 — it may
  // already have sent that iteration's messages, so the checkpoint
  // iteration must not fall below it (a lower cut would strand those
  // messages and deadlock the sender on paused neighbors). Done tasks
  // contribute their final progress. This value is available immediately:
  // the reduction does not wait for anyone to pause.
  std::uint64_t floor = 0;
  for (int slot = 0; slot < node_.num_tasks(); ++slot) {
    std::uint64_t p = node_.task_progress(slot);
    if (!done_.at(static_cast<std::size_t>(slot)) &&
        !node_.task_paused(slot))
      p += 1;
    floor = std::max(floor, p);
  }
  subtree_max_progress_ = floor;
  // Replay any child contributions that overtook this request (a child's
  // own request arrived earlier and its report beat ours here).
  if (auto it = progress_stash_.find(epoch_); it != progress_stash_.end()) {
    for (const auto& [child, progress] : it->second) {
      subtree_max_progress_ = std::max(subtree_max_progress_, progress);
      report(Reduction::Progress, child);
    }
  }
  // Stashes at or below this epoch can never be consumed again.
  progress_stash_.erase(progress_stash_.begin(),
                        progress_stash_.upper_bound(epoch_));
  report(Reduction::Progress, kSelf);
}

void NodeAgent::report(Reduction r, int who) {
  std::set<int>& in = reported_[static_cast<std::size_t>(r)];
  if (!in.insert(who).second) return;  // duplicate
  if (static_cast<int>(in.size()) < num_children_ + 1) return;  // + kSelf
  auto up = [this](auto msg, int tree_tag, int root_tag) {
    if (is_root())
      send_to_manager(root_tag, rt::pack_payload(msg));
    else
      send_to_agent(replica_, parent_index(), tree_tag, rt::pack_payload(msg));
  };
  switch (r) {
    case Reduction::Progress:
      return up(wire::ProgressMsg{epoch_, subtree_max_progress_},
                wire::kTreeProgress, wire::kReplicaQuiesced);
    case Reduction::Ready:
      return up(wire::ReadyMsg{epoch_}, wire::kTreeReady,
                wire::kReplicaReady);
    case Reduction::Verdict:
      return up(wire::VerdictMsg{epoch_,
                                 static_cast<std::uint8_t>(subtree_match_),
                                 subtree_mismatches_},
                wire::kTreeVerdict, wire::kReplicaVerdict);
  }
}

void NodeAgent::handle_tree_progress(const wire::ProgressMsg& msg, int child) {
  if (msg.epoch > epoch_) {
    // The child heard about epoch msg.epoch before we did: park its
    // contribution until our own kCheckpointRequest lands.
    auto& slot = progress_stash_[msg.epoch][child];
    slot = std::max(slot, msg.max_progress);
    return;
  }
  if (msg.epoch != epoch_ || phase_ != Phase::Quiesce ||
      reported(Reduction::Progress, child))
    return;
  subtree_max_progress_ = std::max(subtree_max_progress_, msg.max_progress);
  report(Reduction::Progress, child);
}

void NodeAgent::handle_iteration_decided(const wire::IterationMsg& msg) {
  if (msg.epoch != epoch_ || phase_ != Phase::Quiesce) return;
  decided_iteration_ = msg.iteration;
  phase_ = Phase::RunToIteration;
  // Tasks short of the target resume; the pause rule in on_progress stops
  // them exactly at the decided iteration.
  for (int slot = 0; slot < node_.num_tasks(); ++slot) {
    if (done_.at(static_cast<std::size_t>(slot))) continue;
    if (node_.task_progress(slot) < decided_iteration_)
      node_.unpause_task(slot);
  }
  check_ready();
}

void NodeAgent::check_ready() {
  if (phase_ != Phase::RunToIteration || reported(Reduction::Ready, kSelf))
    return;
  for (int slot = 0; slot < node_.num_tasks(); ++slot) {
    if (done_.at(static_cast<std::size_t>(slot))) continue;
    if (!(node_.task_paused(slot) &&
          node_.task_progress(slot) >= decided_iteration_))
      return;
  }
  report(Reduction::Ready, kSelf);
}

void NodeAgent::handle_tree_ready(const wire::ReadyMsg& msg, int child) {
  // Unlike progress, readiness cannot arrive early: a child only reports
  // after kIterationDecided, which the manager sends once every root has
  // contributed — requiring this node's own request to have been handled.
  if (msg.epoch == epoch_) report(Reduction::Ready, child);
}

// ---------------------------------------------------------------------------
// Pack + SDC detection (Fig. 3 phase 4, §2.1).
// ---------------------------------------------------------------------------

void NodeAgent::handle_pack_command(const wire::EpochMsg& msg) {
  if (msg.epoch != epoch_ || phase_ != Phase::RunToIteration) return;
  phase_ = Phase::Packing;
  pack_candidate();
}

void NodeAgent::pack_candidate() {
  // Checksum mode needs the buddy digest of the packed image (§4.2). Fold
  // it in the SAME traversal that packs the image: the Fletcher sink tees
  // off the packer's byte stream, so there is no second pass over the
  // checkpoint.
  bool want_digest = env_.config->detection == SdcDetection::Checksum &&
                     !single_replica_ckpt_;
  checksum::Fletcher64Sink digest;
  pup::Checkpoint image = node_.pack_state(want_digest ? &digest : nullptr);
  if (want_digest) local_digest_ = digest.digest();
  double bytes = static_cast<double>(image.size());
  // Codec delta stage: the candidate's per-chunk digests, compared against
  // the base epoch's to find dirty chunks. The grid depends only on the
  // image size, so the digests (and everything downstream) are a pure
  // function of the packed bytes.
  if (codec_on() && env_.config->codec.delta_on())
    cand_digests_ = ckpt::CodecPipeline::digests(image.bytes());
  store_.stage_candidate(epoch_, decided_iteration_, std::move(image));

  // Charge the serialization cost, plus the digest cost in checksum mode
  // (~4 instructions per byte, §4.2).
  double pack_time = bytes / env_.cluster->config().net.pack_bandwidth;
  if (want_digest) pack_time += bytes * 4.0 * env_.cluster->config().net.gamma;
  std::uint64_t inc = node_.incarnation();
  env_.cluster->engine().schedule_after(pack_time, [this, inc]() {
    if (node_.alive() && node_.incarnation() == inc) after_pack();
  });
}

void NodeAgent::after_pack() {
  pack_complete_ = true;
  // Semi-blocking mode: the snapshot is taken; the application continues
  // while the copy travels and is compared. (Recovery checkpoints stay
  // blocking: the healthy replica is about to ship state the crashed side
  // must restore from verbatim.)
  if (env_.config->semi_blocking && !single_replica_ckpt_)
    node_.unpause_all();
  if (single_replica_ckpt_) {
    // Recovery checkpoint: no cross-replica comparison possible.
    phase_ = Phase::AwaitVerdict;
    wire::EpochMsg msg{epoch_};
    send_to_manager(wire::kPackDone, rt::pack_payload(msg));
    return;
  }
  if (env_.config->detection == SdcDetection::Checksum) {
    // local_digest_ was folded during pack_candidate's single traversal.
    if (replica_ == 0) {
      wire::ChecksumMsg msg{epoch_, local_digest_,
                            static_cast<std::uint64_t>(
                                store_.candidate().image.size())};
      send_to_agent(1, index_, wire::kBuddyChecksum, rt::pack_payload(msg));
      phase_ = Phase::AwaitVerdict;
      return;
    }
  } else {
    if (replica_ == 0) {
      if (codec_on())
        send_codec_frame_to_buddy();
      else
        send_checkpoint_to_buddy(store_.candidate(), kPurposeCompare);
      phase_ = Phase::AwaitVerdict;
      return;
    }
  }
  // Replica 1: wait for the remote image/digest, then compare.
  phase_ = Phase::AwaitVerdict;
  maybe_compare();
}

void NodeAgent::send_checkpoint_to_buddy(const ckpt::Image& ckpt,
                                         std::uint8_t purpose,
                                         std::uint64_t barrier) {
  wire::CheckpointMsg msg;
  msg.epoch = ckpt.epoch;
  msg.iteration = ckpt.iteration;
  msg.purpose = purpose;
  msg.barrier = barrier;
  // The image rides as an attachment aliasing the stored checkpoint: the
  // transfer is charged on the wire but never copied in memory.
  double wire_bytes = static_cast<double>(ckpt.image.size());
  send_to_agent(1 - replica_, index_, wire::kBuddyCheckpoint,
                rt::pack_payload(msg), wire_bytes, ckpt.image.buffer());
}

void NodeAgent::handle_buddy_checksum(const rt::Message& m) {
  auto msg = rt::unpack_payload<wire::ChecksumMsg>(m);
  if (msg.epoch != epoch_) return;
  remote_checksum_ = msg;
  have_remote_ = true;
  maybe_compare();
}

void NodeAgent::handle_buddy_checkpoint(const rt::Message& m) {
  auto msg = rt::unpack_payload<wire::CheckpointMsg>(m);
  if (msg.purpose == kPurposeRestore) {
    // Buddy-assisted restore (spare promotion, medium/weak forward jump).
    // The image shares the sender's buffer; no copy is made here either.
    restore_from(
        {true, msg.epoch, msg.iteration, pup::Checkpoint(m.attachment)},
        "buddy checkpoint", msg.barrier);
    return;
  }
  if (msg.epoch != epoch_) return;
  remote_image_ = m.attachment;
  have_remote_ = true;
  maybe_compare();
}

// ---------------------------------------------------------------------------
// Codec pipeline: delta/compressed buddy transfer (--ckpt-delta/--ckpt-compress).
// ---------------------------------------------------------------------------

void NodeAgent::send_codec_frame_to_buddy() {
  const ckpt::CodecConfig& codec = env_.config->codec;
  const ckpt::Image& cand = store_.candidate();
  std::span<const std::byte> image = cand.image.bytes();
  // A delta is legal only when the buddy provably holds the base image this
  // node would diff against: the last epoch it received in full.
  bool base_ok = codec.delta_on() && codec_base_.epoch != 0 &&
                 sent_base_epoch_ == codec_base_.epoch &&
                 codec_base_.image.size() == image.size() &&
                 !cand_digests_.empty();
  if (!base_ok && !codec.compress_on()) {
    // A raw full frame would be the legacy bytes plus a chunk map: the
    // legacy transfer is strictly better. (First epoch, post-fallback.)
    send_checkpoint_to_buddy(cand, kPurposeCompare);
    return;
  }
  ckpt::CodecPipeline pipe(codec, env_.codec_memo);
  ckpt::CodecFrame frame =
      base_ok ? pipe.encode(cand.image.buffer(), cand_digests_,
                            &codec_base_.digests, codec_base_.image.size())
              : pipe.encode_full(cand.image.buffer());
  wire::DeltaCheckpointMsg msg;
  msg.epoch = cand.epoch;
  msg.iteration = cand.iteration;
  msg.base_epoch = base_ok ? codec_base_.epoch : 0;
  msg.full_bytes = frame.map.full_bytes;
  msg.purpose = kPurposeCompare;
  msg.encoding = frame.encoding;
  msg.present = frame.map.present;
  ++codec_stats_.frames;
  if (frame.map.all_present()) ++codec_stats_.full_frames;
  codec_stats_.chunks_total += frame.map.chunks();
  codec_stats_.chunks_shipped += frame.map.present_chunks();
  codec_stats_.raw_bytes += image.size();
  codec_stats_.wire_bytes += frame.map.map_bytes() + frame.payload.size();
  env_.cluster->trace().record(
      now(), rt::TraceKind::DeltaShipped, replica_, index_,
      "epoch=" + std::to_string(cand.epoch) + " chunks=" +
          std::to_string(frame.map.present_chunks()) + "/" +
          std::to_string(frame.map.chunks()) +
          " bytes=" + std::to_string(frame.payload.size()));
  // The chunk map travels in the pup'd payload and the encoded chunks as
  // the attachment, so bytes_on_wire=-1 charges exactly map + payload —
  // the whole point of the pipeline.
  send_to_agent(1 - replica_, index_, wire::kBuddyDeltaCheckpoint,
                rt::pack_payload(msg), /*bytes_on_wire=*/-1.0,
                frame.payload);
}

void NodeAgent::handle_buddy_delta_checkpoint(const rt::Message& m) {
  auto msg = rt::unpack_payload<wire::DeltaCheckpointMsg>(m);
  if (msg.epoch != epoch_ || have_remote_) return;
  ckpt::CodecFrame frame;
  frame.map.full_bytes = msg.full_bytes;
  frame.map.present = msg.present;
  frame.encoding = msg.encoding;
  frame.payload = m.attachment;
  bool partial = !frame.map.all_present();
  bool base_ok = !partial || (msg.base_epoch != 0 &&
                              buddy_base_.epoch == msg.base_epoch &&
                              buddy_base_.image.size() == msg.full_bytes);
  if (base_ok) {
    try {
      // Reconstruction is EXACT (raw dirty chunks over the cached base),
      // so the compare below sees the same bytes a full transfer carries:
      // SDC detection semantics are untouched by the codec.
      remote_image_ = ckpt::CodecPipeline::decode(
          frame, partial ? buddy_base_.image.bytes()
                         : std::span<const std::byte>{});
      have_remote_ = true;
      maybe_compare();
      return;
    } catch (const pup::StreamError&) {
      // Corrupt frame: treat exactly like a lost base and ask for a full.
    }
  }
  buddy_base_ = ckpt::DeltaBase{};  // whatever base we held is untrusted
  env_.cluster->trace().record(now(), rt::TraceKind::DeltaFallback, replica_,
                               index_,
                               "epoch=" + std::to_string(msg.epoch) +
                                   " base=" + std::to_string(msg.base_epoch));
  wire::NeedFullMsg need{0};
  send_to_agent(1 - replica_, index_, wire::kBuddyNeedFull,
                rt::pack_payload(need));
}

void NodeAgent::handle_buddy_need_full(const wire::NeedFullMsg& msg) {
  (void)msg;
  sent_base_epoch_ = 0;  // every later epoch ships full until re-established
  ++codec_stats_.need_full;
  // The compare round is stalled on the rejected frame: re-ship the same
  // candidate as a legacy full image (idempotent on the receiver).
  if (replica_ == 0 && phase_ == Phase::AwaitVerdict &&
      !single_replica_ckpt_ &&
      env_.config->detection == SdcDetection::FullCompare &&
      store_.has_candidate() && store_.candidate().epoch == epoch_)
    send_checkpoint_to_buddy(store_.candidate(), kPurposeCompare);
}

void NodeAgent::invalidate_codec_bases() {
  codec_base_ = ckpt::DeltaBase{};
  buddy_base_ = ckpt::DeltaBase{};
  sent_base_epoch_ = 0;
  cand_digests_.clear();
  l2_base_epoch_ = 0;
  l2_base_digests_.clear();
  l2_base_bytes_ = 0;
  parity_force_full_ = true;
}

void NodeAgent::maybe_compare() {
  if (replica_ != 1 || !pack_complete_ || !have_remote_ ||
      reported(Reduction::Verdict, kSelf))
    return;
  if (env_.config->detection == SdcDetection::Checksum) {
    bool match = remote_checksum_.digest == local_digest_ &&
                 remote_checksum_.full_bytes == store_.candidate().image.size();
    finish_local_verdict(match);
    return;
  }
  // Full comparison: charge the streaming compare cost, then judge.
  double bytes = static_cast<double>(store_.candidate().image.size());
  double cost = bytes / env_.cluster->config().net.compare_bandwidth;
  std::uint64_t inc = node_.incarnation();
  env_.cluster->engine().schedule_after(cost, [this, inc]() {
    if (!node_.alive() || node_.incarnation() != inc) return;
    pup::CompareResult r = pup::compare_streams(
        store_.candidate().image.bytes(), remote_image_.bytes(),
        env_.config->checker);
    // A candidate equal to the buddy's image byte for byte (not merely
    // within the checker's tolerance) drops its own copy for the buddy's
    // buffer: the arena returns to the node's pack builder, and the epoch,
    // once committed, is held once per index.
    if (r.match) store_.share_candidate(remote_image_);
    finish_local_verdict(r.match);
  });
}

void NodeAgent::finish_local_verdict(bool match) {
  subtree_match_ = subtree_match_ && match;
  if (!match) ++subtree_mismatches_;
  report(Reduction::Verdict, kSelf);
}

void NodeAgent::handle_tree_verdict(const wire::VerdictMsg& msg, int child) {
  if (msg.epoch != epoch_ || reported(Reduction::Verdict, child)) return;
  subtree_match_ = subtree_match_ && (msg.match != 0);
  subtree_mismatches_ += msg.mismatched_nodes;
  report(Reduction::Verdict, child);
}

// ---------------------------------------------------------------------------
// Commit / rollback / recovery actions.
// ---------------------------------------------------------------------------

void NodeAgent::handle_commit(const wire::EpochMsg& msg) {
  // Only the consensus round this agent is actually in may be committed: a
  // freshly promoted spare (epoch 0) or a node mid-restore must not be
  // unpaused by a commit addressed to its predecessor's round.
  if (msg.epoch != epoch_ || awaiting_go_) return;
  if (store_.promote(msg.epoch) == ckpt::PromoteResult::Promoted) {
    // A new verified image exists: under rs the group parity protects it
    // (under local/partner the buddy already holds its copy). The base is
    // the PREVIOUS committed image, so this runs before codec_base_
    // advances to this epoch; after a restore the round ships full.
    if (rs_)
      rs_->on_verified(store_.verified(),
                       parity_force_full_ ? nullptr : &codec_base_,
                       cand_digests_);
    parity_force_full_ = false;
    if (env_.config->codec.delta_on()) {
      // The committed image becomes every channel's next delta base.
      codec_base_.epoch = msg.epoch;
      codec_base_.image = store_.verified().image.buffer();
      codec_base_.digests = std::move(cand_digests_);
      cand_digests_.clear();
      if (env_.config->detection == SdcDetection::FullCompare &&
          !single_replica_ckpt_) {
        if (replica_ == 0) {
          // The buddy compared (and therefore holds) this full image.
          sent_base_epoch_ = msg.epoch;
        } else if (have_remote_ && remote_image_.size() > 0) {
          // Cache the buddy's committed image: incoming delta frames are
          // overlaid on it. Aliases the reconstructed/shipped buffer.
          buddy_base_.epoch = msg.epoch;
          buddy_base_.image = remote_image_;
        }
      }
    }
    // An in-flight flush of the previous epoch is now pointless: the next
    // kFlushCommand targets the new verified image.
    if (env_.tier != nullptr && flush_.active && flush_.epoch < msg.epoch)
      supersede_flush(/*trace=*/true);
  }
  phase_ = Phase::Idle;
  node_.unpause_all();
}

void NodeAgent::handle_rollback(const wire::RestoreCmdMsg& msg) {
  // Gate before the checkpoint-less branch: it gates this node and asks the
  // manager for an image, which a stale wave must not do.
  if (msg.barrier <= last_restore_barrier_) return;
  if (!store_.has_verified()) {
    // Local/rs schemes may still hold a candidate for exactly the rollback
    // epoch (the commit raced this failure): a candidate at that epoch
    // necessarily passed the comparison, so restoring it needs no traffic.
    // The partner scheme keeps the original protocol to the byte: ask the
    // manager to route the buddy's verified image here.
    if (env_.config->redundancy != ckpt::Scheme::Partner) {
      if (const ckpt::Image* img = store_.restorable(msg.epoch)) {
        restore_from(*img, "rollback", msg.barrier);
        return;
      }
    }
    // A freshly promoted spare caught in a wider rollback before its first
    // restore landed: it holds no checkpoint of its own. Stay gated and ask
    // the manager to route a recovery image here instead.
    node_.set_gated(true);
    wire::BarrierMsg need{msg.barrier};
    send_to_manager(wire::kNeedBuddyRestore, rt::pack_payload(need));
    return;
  }
  store_.discard_candidate();
  restore_from(store_.verified(), "rollback", msg.barrier);
}

void NodeAgent::restore_from(ckpt::Image img, const char* why,
                             std::uint64_t barrier) {
  // The one admission rule for every image source. Taking a wave raises the
  // floor to its barrier, so a duplicated command or a double-routed image
  // for it is a no-op; quash_restores_through raises the floor past
  // abandoned waves.
  if (barrier <= last_restore_barrier_) return;
  ACR_REQUIRE(img.valid, "restore from invalid checkpoint");
  last_restore_barrier_ = barrier;
  double bytes = static_cast<double>(img.image.size());
  double cost = bytes / env_.cluster->config().net.unpack_bandwidth;
  // The staged image's Buffer is shared, so holding it for the deferred
  // restore costs a refcount bump even for message-borne images.
  node_.set_gated(true);  // drop app traffic until the resume barrier opens
  env_.cluster->engine().schedule_after(cost, [this, local = std::move(img),
                                               why, barrier]() {
    if (!node_.alive()) return;
    // A newer wave (or a scratch restart's floor) superseded this restore
    // while its unpack was in flight: applying it now would revive
    // abandoned-timeline state on part of the cluster.
    if (last_restore_barrier_ != barrier) return;
    node_.restore_state(local.image);
    store_.adopt_verified(local);
    phase_ = Phase::Idle;
    refresh_done_from_tasks();
    // Every delta base is now stale: the adopted image broke the committed
    // chain this node's channels were diffing along, and the peers' caches
    // of THIS node's image may be gone with their hardware. Ship full
    // everywhere until new bases are established.
    invalidate_codec_bases();
    // The restored image is the node's (possibly new) verified state: under
    // rs the group parity re-protects it. This is what re-feeds a promoted
    // spare's group parity — every member re-sends its chunks after the
    // rollback wave; holders that already completed this epoch ignore them.
    if (rs_) rs_->on_verified(store_.verified());
    // If L2 lacks the adopted epoch for this role (a promoted spare whose
    // predecessor died mid-flush), re-drain it so the epoch converges back
    // to fully-flushed. No-op when the tier is disabled.
    maybe_reflush_after_restore();
    // Two-phase restart (the paper's restart barriers): report done, stay
    // gated, and resume only on the manager's collective go (kResume).
    awaiting_go_ = true;
    log_debug("acr.agent") << "node (" << replica_ << "," << index_
                           << ") restored from " << why << " epoch "
                           << local.epoch << " barrier " << barrier;
    wire::BarrierMsg done{barrier};
    send_to_manager(wire::kRestoreDone, rt::pack_payload(done));
  });
}

void NodeAgent::handle_halt() {
  phase_ = Phase::Halted;
  // Tasks pause at their next progress report; nothing else to do — the
  // recovery checkpoint will arrive as a purpose=restore buddy checkpoint.
}

void NodeAgent::handle_abort(const wire::EpochMsg& msg) {
  // Abort only the round it names: a straggling abort from an earlier
  // consensus must not cancel a later one.
  if (msg.epoch != epoch_) return;
  if (phase_ == Phase::Idle || phase_ == Phase::Halted) return;
  store_.discard_candidate();
  phase_ = Phase::Idle;
  node_.unpause_all();
}

void NodeAgent::handle_resume() {
  for (Peer& p : peers_) {
    p.last_heard = now();
    p.suspected = false;
  }
  if (phase_ == Phase::Halted) phase_ = Phase::Idle;
  if (awaiting_go_) {
    awaiting_go_ = false;
    node_.set_gated(false);
    node_.resume_all_tasks();
  }
}

// ---------------------------------------------------------------------------
// Durable tier: async flush (L1 -> L2 drain) and fetch (L2 -> L1 restore).
// ---------------------------------------------------------------------------

void NodeAgent::handle_flush_command(const wire::FlushCmdMsg& msg) {
  if (env_.tier == nullptr) return;
  start_flush(msg.epoch, msg.urgent != 0);
}

void NodeAgent::start_flush(std::uint64_t epoch, bool urgent) {
  if (env_.tier == nullptr || !node_.alive()) return;
  // Only the CURRENT verified image may drain: a stale command for an epoch
  // this node no longer holds (or never promoted) is unservable.
  if (!store_.has_verified() || store_.verified().epoch != epoch) return;
  if (flush_.active && flush_.epoch == epoch) {
    // A drain command caught a background flush of the same epoch mid-air:
    // upgrade its urgency, keep its chunks.
    flush_.urgent = flush_.urgent || urgent;
    return;
  }
  if (flush_.active) supersede_flush(/*trace=*/true);
  if (env_.tier->has(replica_, index_, epoch)) {
    // Already durable (a fetch round-tripped the image, or a drain re-asks):
    // answer from the index without touching the channel.
    wire::FlushDoneMsg done{epoch, 0};
    send_to_manager(wire::kFlushDone, rt::pack_payload(done));
    return;
  }
  flush_.active = true;
  flush_.epoch = epoch;
  flush_.urgent = urgent;
  flush_.blob.clear();
  flush_.base_epoch = 0;
  flush_.digests.clear();
  if (codec_on()) {
    // Codec path: encode the v2 blob NOW so the chunked drain below
    // charges the (smaller) encoded size against the L2 channel. The blob
    // is published verbatim after the last chunk; for the same epoch the
    // verified image cannot change meanwhile, so pre-encoding is safe.
    const ckpt::Image& img = store_.verified();
    const ckpt::CodecConfig& codec = env_.config->codec;
    std::vector<std::uint32_t> digests =
        codec.delta_on() ? ckpt::CodecPipeline::digests(img.image.bytes())
                         : std::vector<std::uint32_t>{};
    // Delta against the newest blob this node published, while that chain
    // stays fetchable and short (a bounded chain bounds both fetch cost
    // and the blast radius of a lost ancestor).
    bool base_ok = codec.delta_on() && l2_base_epoch_ != 0 &&
                   l2_base_epoch_ < epoch &&
                   l2_base_bytes_ == img.image.size() &&
                   env_.tier->has(replica_, index_, l2_base_epoch_) &&
                   env_.tier->chain_length(replica_, index_, l2_base_epoch_) <
                       ckpt::kTierMaxChain;
    if (base_ok || codec.compress_on()) {
      ckpt::CodecPipeline pipe(codec, env_.codec_memo);
      ckpt::DeltaBlob blob;
      blob.epoch = epoch;
      blob.iteration = img.iteration;
      blob.base_epoch = base_ok ? l2_base_epoch_ : 0;
      blob.frame = base_ok ? pipe.encode(img.image.buffer(), digests,
                                         &l2_base_digests_, l2_base_bytes_)
                           : pipe.encode_full(img.image.buffer());
      flush_.blob = ckpt::encode_delta_image(blob);
      flush_.base_epoch = blob.base_epoch;
    }
    // Without a base and without compression the legacy v1 blob is
    // strictly smaller than a raw v2 frame; flush_.blob stays empty.
    flush_.digests = std::move(digests);
  }
  flush_.remaining =
      flush_.blob.empty()
          ? ckpt::encoded_image_bytes(store_.verified().image.size())
          : flush_.blob.size();
  // Raw-vs-encoded accounting for the pipe (codec off: raw == the image).
  env_.tier->note_raw_write(
      static_cast<double>(store_.verified().image.size()));
  std::uint64_t seq = ++flush_seq_;
  env_.cluster->trace().record(
      now(), rt::TraceKind::FlushStarted, replica_, index_,
      "epoch=" + std::to_string(epoch) +
          " bytes=" + std::to_string(flush_.remaining));
  flush_next_chunk(seq);
}

void NodeAgent::flush_next_chunk(std::uint64_t seq) {
  if (seq != flush_seq_ || !flush_.active) return;
  if (!node_.alive()) {
    // Death mid-flush: nothing was published — the tier never sees a
    // half-written image (the in-memory analogue of temp-file + rename).
    flush_.active = false;
    return;
  }
  std::uint64_t chunk =
      std::min<std::uint64_t>(flush_.remaining, ckpt::kTierFlushChunkBytes);
  double delay = env_.tier->write(replica_, index_, now(),
                                  static_cast<double>(chunk));
  env_.cluster->engine().schedule_after(delay, [this, seq, chunk]() {
    if (seq != flush_seq_ || !flush_.active) return;
    if (!node_.alive()) {
      flush_.active = false;
      return;
    }
    flush_.remaining -= chunk;
    if (flush_.remaining > 0) {
      flush_next_chunk(seq);
      return;
    }
    // Final chunk landed. Publish only if the store STILL holds this epoch
    // as verified — an in-place restore may have replaced it meanwhile.
    bool publish =
        store_.has_verified() && store_.verified().epoch == flush_.epoch;
    if (publish) {
      if (!flush_.blob.empty()) {
        env_.tier->publish_blob(replica_, index_, flush_.epoch,
                                std::move(flush_.blob), flush_.base_epoch);
      } else {
        env_.tier->publish(replica_, index_, store_.verified());
      }
      if (codec_on() && env_.config->codec.delta_on()) {
        // This blob (v1 or v2 alike) anchors the next flush's delta.
        l2_base_epoch_ = flush_.epoch;
        l2_base_digests_ = std::move(flush_.digests);
        l2_base_bytes_ = store_.verified().image.size();
      }
    }
    finish_flush(publish);
  });
}

void NodeAgent::finish_flush(bool published) {
  env_.cluster->trace().record(
      now(), rt::TraceKind::FlushCompleted, replica_, index_,
      "epoch=" + std::to_string(flush_.epoch) +
          (published ? "" : " (stale, not published)"));
  wire::FlushDoneMsg done{
      flush_.epoch,
      static_cast<std::uint8_t>(published && flush_.urgent ? 1 : 0)};
  flush_.active = false;
  send_to_manager(wire::kFlushDone, rt::pack_payload(done));
}

void NodeAgent::supersede_flush(bool trace) {
  if (!flush_.active) return;
  ++flush_seq_;  // in-flight chunk completions fall dead
  flush_.active = false;
  if (trace)
    env_.cluster->trace().record(now(), rt::TraceKind::FlushSuperseded,
                                 replica_, index_,
                                 "epoch=" + std::to_string(flush_.epoch));
}

void NodeAgent::maybe_reflush_after_restore() {
  if (env_.tier == nullptr) return;
  std::uint64_t epoch = store_.verified().epoch;
  if (epoch == 0 || env_.tier->has(replica_, index_, epoch)) return;
  start_flush(epoch, /*urgent=*/false);
}

void NodeAgent::handle_fetch_from_durable(const wire::RestoreCmdMsg& msg) {
  // Gate before the read: the node gates itself and the L2 read is charged.
  if (msg.barrier <= last_restore_barrier_) return;
  if (env_.tier == nullptr) return;
  // The wave's epoch is authoritative now; any background flush is moot.
  supersede_flush(/*trace=*/true);
  // chain_bytes == blob_bytes for a full image; for a delta blob it adds
  // the base chain the reconstruction must also read.
  std::uint64_t bytes = env_.tier->chain_bytes(replica_, index_, msg.epoch);
  if (bytes == 0) {
    // The manager targets newest_complete_epoch(), so this is only
    // reachable if the tier's contents changed under the wave; report back
    // so it can fall to the next rung instead of hanging the barrier.
    wire::BarrierMsg fail{msg.barrier};
    send_to_manager(wire::kFetchFailed, rt::pack_payload(fail));
    return;
  }
  node_.set_gated(true);  // the restore owns this node now
  env_.cluster->trace().record(
      now(), rt::TraceKind::FetchStarted, replica_, index_,
      "epoch=" + std::to_string(msg.epoch) +
          " bytes=" + std::to_string(bytes));
  double delay = env_.tier->read(replica_, index_, now(),
                                 static_cast<double>(bytes));
  env_.cluster->engine().schedule_after(
      delay, [this, epoch = msg.epoch, barrier = msg.barrier]() {
        if (!node_.alive()) return;
        // Superseded in flight: skip the decode, its counter and its trace.
        if (barrier <= last_restore_barrier_) return;
        ckpt::Image img = env_.tier->fetch(replica_, index_, epoch);
        if (!img.valid) {
          wire::BarrierMsg fail{barrier};
          send_to_manager(wire::kFetchFailed, rt::pack_payload(fail));
          return;
        }
        env_.cluster->trace().record(now(), rt::TraceKind::FetchCompleted,
                                     replica_, index_,
                                     "epoch=" + std::to_string(epoch));
        restore_from(std::move(img), "l2 fetch", barrier);
      });
}

void NodeAgent::handle_send_to_buddy(const rt::Message& m, bool candidate) {
  auto barrier = rt::unpack_payload<wire::BarrierMsg>(m);
  const ckpt::Image& src = candidate && store_.has_candidate()
                               ? store_.candidate()
                               : store_.verified();
  if (!src.valid) {
    // Reachable only through pathological reordering of recovery waves
    // (e.g. a routed restore request from an abandoned barrier landing on a
    // node that lost its own checkpoints since). The manager's barrier
    // accounting ignores the wave; dropping is safe, crashing is not.
    log_warn("acr.agent") << "node (" << replica_ << "," << index_
                          << ") asked to ship a checkpoint it does not hold"
                          << " (barrier " << barrier.barrier << ")";
    return;
  }
  send_checkpoint_to_buddy(src, kPurposeRestore, barrier.barrier);
}

}  // namespace acr
