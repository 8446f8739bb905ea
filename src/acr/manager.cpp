#include "acr/manager.h"

#include <bit>

#include "common/logging.h"

namespace acr {

namespace {
constexpr double kDrainRetry = 1e-4;  ///< in-flight drain poll interval (s)
}

Manager::Manager(AcrEnv env, AgentInstaller installer)
    : env_(env),
      installer_(std::move(installer)),
      adaptive_(env.config->adaptive_config) {
  ACR_REQUIRE(env_.cluster != nullptr && env_.config != nullptr,
              "manager needs a cluster and a config");
  if (const char* err = validate_redundancy_config(
          *env_.config, env_.cluster->nodes_per_replica()))
    ACR_REQUIRE(false, err);
  if (const char* err = validate_tier_config(*env_.config))
    ACR_REQUIRE(false, err);
  if (env_.config->tier.enabled())
    ACR_REQUIRE(env_.tier != nullptr,
                "tier enabled but no DurableTier attached to the env");
  groups_ = parity_groups(*env_.config, env_.cluster->nodes_per_replica());
}

double Manager::now() const { return env_.cluster->engine().now(); }
rt::TraceLog& Manager::trace() { return env_.cluster->trace(); }

double Manager::current_interval() const {
  if (env_.config->adaptive) return adaptive_.next_interval(now());
  return env_.config->checkpoint_interval;
}

void Manager::start() {
  env_.cluster->set_manager_hook(
      [this](const rt::Message& m) { on_message(m); });
  env_.cluster->set_link_failure_hook(
      [this](int sr, int sn, int dr, int dn) {
        handle_link_failure(sr, sn, dr, dn);
      });
  if (env_.config->scheme != ResilienceScheme::HardOnly) schedule_tick();
  guard_tick();
}

void Manager::guard_tick() {
  if (complete_ || failed_) return;
  // A node whose buddy, tree parent, and tree children are all dead has no
  // heartbeat observer left. The machine's RAS view (the scheduler knows
  // which nodes answer) closes that gap.
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < env_.cluster->nodes_per_replica(); ++i) {
      if (env_.cluster->role_alive(r, i)) continue;
      if (dead_roles_.count({r, i})) continue;
      trace().record(now(), rt::TraceKind::HardFailureDetected, r, i,
                     "(RAS sweep)");
      handle_suspect_role(r, i);
      if (complete_ || failed_) return;
    }
  }
  env_.cluster->engine().schedule_after(
      10.0 * env_.config->heartbeat_timeout, [this]() { guard_tick(); });
}

void Manager::schedule_tick() {
  if (complete_ || failed_ || drain_requested_) return;
  if (env_.config->scheme == ResilienceScheme::HardOnly) return;
  if (tick_armed_) env_.cluster->engine().cancel(tick_id_);
  tick_id_ = env_.cluster->engine().schedule_after(current_interval(),
                                                   [this]() { tick(); });
  tick_armed_ = true;
}

void Manager::tick() {
  tick_armed_ = false;
  if (complete_ || failed_ || drain_requested_) return;
  if (ckpt_ || recovery_) {
    // Busy with another protocol; retry shortly.
    tick_id_ = env_.cluster->engine().schedule_after(
        std::max(0.01, current_interval() * 0.1), [this]() { tick(); });
    tick_armed_ = true;
    return;
  }
  if (weak_recovery_pending_) {
    // Weak scheme: the crashed replica has been waiting for this periodic
    // checkpoint (Fig. 4c); run it on the healthy replica and ship it over.
    weak_recovery_pending_ = false;
    begin_recovery_checkpoint(weak_crashed_replica_);
    return;
  }
  request_checkpoint(/*participants=*/3, CkptPurpose::Periodic);
}

void Manager::request_immediate_checkpoint() {
  if (complete_ || failed_ || ckpt_ || recovery_) return;
  request_checkpoint(3, CkptPurpose::Periodic);
}

void Manager::note_out_of_band_failure() {
  if (complete_ || failed_) return;
  if (env_.config->adaptive) adaptive_.on_failure(now());
}

void Manager::note_spare_available() {
  if (env_.config->scheme != ResilienceScheme::HardOnly)
    return;  // the next commit relieves doubled roles at minimal cost
  maybe_undouble();
}

void Manager::broadcast(int replica, int tag, buf::Buffer payload,
                        double bytes_on_wire) {
  for (int i = 0; i < env_.cluster->nodes_per_replica(); ++i)
    env_.cluster->send_from_manager(replica, i, tag, payload, bytes_on_wire);
}

void Manager::broadcast_participants(std::uint8_t participants, int tag,
                                     buf::Buffer payload,
                                     double bytes_on_wire) {
  for (int r = 0; r < 2; ++r)
    if (participants & (1u << r)) broadcast(r, tag, payload, bytes_on_wire);
}

// ---------------------------------------------------------------------------
// Checkpoint path.
// ---------------------------------------------------------------------------

void Manager::request_checkpoint(std::uint8_t participants,
                                 CkptPurpose purpose) {
  ACR_REQUIRE(!ckpt_, "checkpoint already in progress");
  ActiveCheckpoint c;
  c.epoch = next_epoch_++;
  c.participants = participants;
  c.purpose = purpose;
  c.quiesced_target = std::popcount(participants);
  c.ready_target = c.quiesced_target;
  c.packdone_target = purpose == CkptPurpose::Recovery
                          ? env_.cluster->nodes_per_replica()
                          : 0;
  ckpt_ = c;
  trace().record(now(), rt::TraceKind::CheckpointRequested, -1, -1,
                 "epoch=" + std::to_string(c.epoch) +
                     (purpose == CkptPurpose::Recovery ? " (recovery)" : ""));
  wire::CkptRequestMsg msg{c.epoch, participants};
  broadcast_participants(participants, wire::kCheckpointRequest,
                         rt::pack_payload(msg));
}

void Manager::handle_replica_quiesced(const wire::ProgressMsg& msg,
                                      int src_replica) {
  if (!ckpt_ || msg.epoch != ckpt_->epoch) return;
  if (!(ckpt_->participants & (1u << src_replica))) return;
  if (!ckpt_->quiesced_replicas.insert(src_replica).second) return;  // dup
  ckpt_->max_progress = std::max(ckpt_->max_progress, msg.max_progress);
  if (static_cast<int>(ckpt_->quiesced_replicas.size()) <
      ckpt_->quiesced_target)
    return;
  trace().record(now(), rt::TraceKind::CheckpointIterationDecided, -1, -1,
                 "iteration=" + std::to_string(ckpt_->max_progress));
  wire::IterationMsg decided{ckpt_->epoch, ckpt_->max_progress};
  broadcast_participants(ckpt_->participants, wire::kIterationDecided,
                         rt::pack_payload(decided));
}

void Manager::handle_replica_ready(const wire::ReadyMsg& msg,
                                   int src_replica) {
  if (!ckpt_ || msg.epoch != ckpt_->epoch) return;
  if (!(ckpt_->participants & (1u << src_replica))) return;
  if (!ckpt_->ready_replicas.insert(src_replica).second) return;  // dup
  if (static_cast<int>(ckpt_->ready_replicas.size()) < ckpt_->ready_target)
    return;
  try_start_pack();
}

void Manager::try_start_pack() {
  if (!ckpt_) return;
  // Completion detection: every task is paused at the decided iteration; the
  // checkpoint may be cut only once the wires are silent too.
  for (int r = 0; r < 2; ++r) {
    if (!(ckpt_->participants & (1u << r))) continue;
    if (env_.cluster->in_flight_app_messages(r) > 0) {
      env_.cluster->engine().schedule_after(kDrainRetry,
                                            [this]() { try_start_pack(); });
      return;
    }
  }
  trace().record(now(), rt::TraceKind::CheckpointPacked, -1, -1,
                 "epoch=" + std::to_string(ckpt_->epoch));
  wire::EpochMsg msg{ckpt_->epoch};
  broadcast_participants(ckpt_->participants, wire::kPackCommand,
                         rt::pack_payload(msg));
}

void Manager::handle_verdict(const wire::VerdictMsg& msg) {
  if (!ckpt_ || msg.epoch != ckpt_->epoch) return;
  if (msg.match) {
    commit_checkpoint();
  } else {
    trace().record(now(), rt::TraceKind::SdcDetected, -1, -1,
                   "mismatched_nodes=" + std::to_string(msg.mismatched_nodes));
    rollback_sdc();
  }
}

void Manager::commit_checkpoint() {
  verified_epoch_ = ckpt_->epoch;
  ++committed_;
  trace().record(now(), rt::TraceKind::CheckpointCommitted, -1, -1,
                 "epoch=" + std::to_string(ckpt_->epoch));
  wire::EpochMsg msg{ckpt_->epoch};
  broadcast_participants(3, wire::kCommit, rt::pack_payload(msg));
  bool was_final = final_verify_epoch_ != 0 && ckpt_->epoch == final_verify_epoch_;
  std::uint64_t epoch = ckpt_->epoch;
  ckpt_.reset();
  if (was_final) {
    final_verify_epoch_ = 0;
    declare_complete(-1);
    return;
  }
  // The durable tier drains asynchronously AFTER the commit: the flush
  // never delays the next checkpoint barrier (separate command, separate
  // per-node L2 pipe).
  maybe_request_flush(epoch, 3);
  schedule_tick();
  maybe_finalize();
  // Right after a commit is the cheapest moment to relieve a doubled role:
  // the rollback in its recovery wave loses almost nothing.
  maybe_undouble();
  maybe_finish_drain();
}

void Manager::rollback_sdc() {
  ++sdc_rollbacks_;
  final_verify_epoch_ = 0;
  // A detected SDC is a failure observation for the adaptive controller.
  if (env_.config->adaptive) adaptive_.on_failure(now());
  if (verified_epoch_ == 0) {
    // Nothing verified to fall back to: the corruption predates the first
    // checkpoint, so the run restarts from scratch.
    restart_from_scratch();
    return;
  }
  trace().record(now(), rt::TraceKind::Rollback, -1, -1,
                 "to epoch=" + std::to_string(verified_epoch_));
  rewind(3);
  std::uint64_t barrier = next_barrier_++;
  wire::RestoreCmdMsg msg{verified_epoch_, barrier};
  broadcast_participants(3, wire::kRollback, rt::pack_payload(msg));
  ckpt_.reset();
  // Both replicas restore; the resume barrier (finish_recovery) reopens
  // the world once every node reports in.
  open_wave(-1, 2 * env_.cluster->nodes_per_replica(), barrier)
      .counts_as_recovery = false;
}

void Manager::handle_pack_done(const wire::EpochMsg& msg, int src_node) {
  if (!ckpt_ || msg.epoch != ckpt_->epoch ||
      ckpt_->purpose != CkptPurpose::Recovery)
    return;
  if (!ckpt_->packdone_nodes.insert(src_node).second) return;  // dup
  if (static_cast<int>(ckpt_->packdone_nodes.size()) < ckpt_->packdone_target)
    return;
  // Healthy replica fully packed. Ship every node's fresh checkpoint to its
  // buddy in the crashed replica, commit it on the healthy side, and wait
  // for the crashed side to restore.
  ACR_REQUIRE(recovery_, "recovery checkpoint without active recovery");
  int crashed = recovery_->crashed_replica;
  int healthy = 1 - crashed;
  rewind(static_cast<std::uint8_t>(1u << crashed));
  wire::BarrierMsg bar{recovery_->barrier};
  broadcast(healthy, wire::kSendCandidateToBuddy, rt::pack_payload(bar));
  verified_epoch_ = ckpt_->epoch;
  ++committed_;
  wire::EpochMsg commit{ckpt_->epoch};
  broadcast(healthy, wire::kCommit, rt::pack_payload(commit));
  trace().record(now(), rt::TraceKind::CheckpointCommitted, healthy, -1,
                 "recovery epoch=" + std::to_string(ckpt_->epoch));
  // Only the healthy replica holds the new epoch; the crashed side's roles
  // re-flush after their restores land (maybe_reflush_after_restore).
  maybe_request_flush(ckpt_->epoch,
                      static_cast<std::uint8_t>(1u << healthy));
  ckpt_.reset();
}

// ---------------------------------------------------------------------------
// Failure path.
// ---------------------------------------------------------------------------

void Manager::handle_suspect(const wire::SuspectMsg& msg) {
  if (env_.cluster->role_alive(msg.replica, msg.node_index)) return;  // stale
  trace().record(now(), rt::TraceKind::HardFailureDetected, msg.replica,
                 msg.node_index);
  handle_suspect_role(msg.replica, msg.node_index);
}

void Manager::handle_suspect_role(int replica, int node_index) {
  if (complete_ || failed_) return;
  auto role = std::make_pair(replica, node_index);
  if (dead_roles_.count(role)) return;
  dead_roles_.insert(role);
  ++hard_failures_;
  if (env_.config->adaptive) adaptive_.on_failure(now());

  if (ckpt_) {
    // A death mid-checkpoint wedges the reductions; abort and resume. The
    // abort names its epoch so stragglers cannot cancel a later round. The
    // epoch tag rides in the frame header on a real wire, so the abort is
    // charged at header-only cost.
    wire::EpochMsg abort{ckpt_->epoch};
    broadcast_participants(ckpt_->participants, wire::kAbortConsensus,
                           rt::pack_payload(abort),
                           static_cast<double>(rt::kMessageHeaderBytes));
    if (final_verify_epoch_ == ckpt_->epoch) final_verify_epoch_ = 0;
    ckpt_.reset();
  }
  if (recovery_ && recovery_->fetch_epoch != 0) {
    // A node died while its wave was reading from L2. The tier still holds
    // the epoch (publishes are durable), so retry the fetch under a fresh
    // barrier instead of escalating to an L1 rollback of state that no
    // longer exists anywhere in memory.
    restart_from_scratch();
    return;
  }
  if (recovery_ || weak_recovery_pending_) {
    // Overlapping failures — including the healthy replica breaking while
    // it packs a recovery checkpoint for the crashed one: the paper's
    // answer is a rollback to the previous checkpoint (or scratch); see
    // §2.3 weak/medium caveats. The current restore wave is abandoned (its
    // barrier id becomes stale) and a wider one starts.
    escalate_rollback_all();
    return;
  }
  trace().record(now(), rt::TraceKind::RecoveryStarted, role.first,
                 role.second, resilience_scheme_name(env_.config->scheme));
  start_recovery(role.first, role.second);
}

bool Manager::promote_and_install(int replica, int node_index) {
  rt::Node* fresh = env_.cluster->promote_spare(replica, node_index);
  if (fresh == nullptr && env_.config->degrade == DegradeMode::Shrink) {
    // Shrink-to-survive: the pool is empty, but the job need not die —
    // remap the role onto a surviving node of the same replica (doubling
    // up) and continue with degraded redundancy until a repair refills the
    // pool. Logical indices are preserved, so buddy/group/tree routing is
    // untouched; the role-table repoint IS the routing rewrite.
    fresh = env_.cluster->double_up(replica, node_index);
  }
  if (fresh == nullptr) {
    failed_ = true;
    trace().record(now(), rt::TraceKind::JobComplete, -1, -1,
                   env_.config->degrade == DegradeMode::Shrink
                       ? "FAILED: spare pool exhausted and no surviving host"
                       : "FAILED: spare pool exhausted");
    return false;
  }
  // Gate until the restore lands: traffic addressed to the role belongs to
  // the timeline being recovered.
  fresh->set_gated(true);
  installer_(*fresh);
  return true;
}

void Manager::maybe_undouble() {
  if (complete_ || failed_ || ckpt_ || recovery_ || weak_recovery_pending_)
    return;
  // Un-doubling rides the standard recovery machinery; only the Strong
  // scheme's buddy/rs restore re-mans a role without a single-replica
  // recovery checkpoint, so other schemes keep their doubled roles.
  if (env_.config->scheme != ResilienceScheme::Strong) return;
  if (redundancy() == ckpt::Scheme::Local) return;  // would cost a scratch
  if (verified_epoch_ == 0) return;
  if (env_.cluster->spares_remaining() == 0) return;
  auto doubled = env_.cluster->doubled_roles();
  if (doubled.empty()) return;
  auto [r, i] = doubled.front();
  // Retire the lodger (the role goes unmanned; the cluster traces
  // RoleUndoubled) and promote a real spare through the usual wave. Not a
  // failure: the wave neither traces RecoveryStarted nor bumps counters.
  env_.cluster->retire_lodger(r, i);
  dead_roles_.insert({r, i});
  start_recovery(r, i);
  if (recovery_) recovery_->counts_as_recovery = false;
}

void Manager::start_recovery(int replica, int node_index) {
  if (!promote_and_install(replica, node_index)) return;

  // Local: no remote copy exists anywhere, the dead node's image is gone.
  if (redundancy() == ckpt::Scheme::Local) return restart_from_scratch();
  switch (env_.config->scheme) {
    case ResilienceScheme::Strong:
      // Validation pins rs to the strong scheme.
      start_restore_wave(replica, node_index);
      break;
    case ResilienceScheme::Medium:
    case ResilienceScheme::HardOnly:
      begin_recovery_checkpoint(replica);
      break;
    case ResilienceScheme::Weak:
      // Fig. 4c: crashed replica waits for the next periodic checkpoint.
      weak_recovery_pending_ = true;
      weak_crashed_replica_ = replica;
      broadcast(replica, wire::kHalt, {});
      break;
  }
}

void Manager::start_restore_wave(int replica, int node_index) {
  if (verified_epoch_ == 0) return restart_from_scratch();
  std::vector<int> dead{node_index};
  if (redundancy() == ckpt::Scheme::Rs) {
    // A burst can drop a second group member before its suspect report
    // lands; routing around it as a survivor would strand the rebuild. Fold
    // the group's dead-but-unreported members into this wave: dead_roles_
    // widens route_rs_rebuild's dead set (which applies the rs rule once
    // this wave has its barrier) and drops their late reports.
    for (int i : groups_.group_members(node_index)) {
      auto role = std::make_pair(replica, i);
      if (i == node_index || env_.cluster->role_alive(replica, i) ||
          dead_roles_.count(role))
        continue;
      trace().record(now(), rt::TraceKind::HardFailureDetected, replica, i);
      dead_roles_.insert(role);
      ++hard_failures_;
      if (env_.config->adaptive) adaptive_.on_failure(now());
      if (!promote_and_install(replica, i)) return;
      dead.push_back(i);
    }
  } else if (!recoverable(std::array{std::pair{replica, node_index}})) {
    return restart_from_scratch();  // partner: the buddy's copy is gone too
  }
  rewind(static_cast<std::uint8_t>(1u << replica));
  std::uint64_t barrier = next_barrier_++;
  // The dead roles get a routed image; everyone else in the crashed replica
  // rolls back locally (Fig. 4a).
  if (!route_restore(replica, node_index, barrier))
    return restart_from_scratch();
  wire::RestoreCmdMsg roll{verified_epoch_, barrier};
  for (int j = 0; j < env_.cluster->nodes_per_replica(); ++j) {
    if (std::find(dead.begin(), dead.end(), j) != dead.end()) continue;
    env_.cluster->send_from_manager(replica, j, wire::kRollback,
                                    rt::pack_payload(roll));
  }
  open_wave(replica, env_.cluster->nodes_per_replica(), barrier);
}

bool Manager::route_restore(int replica, int node_index,
                            std::uint64_t barrier) {
  switch (redundancy()) {
    case ckpt::Scheme::Partner:
      if (env_.cluster->role_alive(1 - replica, node_index)) {
        wire::BarrierMsg bar{barrier};
        env_.cluster->send_from_manager(1 - replica, node_index,
                                        wire::kSendVerifiedToBuddy,
                                        rt::pack_payload(bar));
      }
      return true;
    case ckpt::Scheme::Rs:
      return route_rs_rebuild(replica, node_index, barrier);
    case ckpt::Scheme::Local:
      break;
  }
  return false;
}

bool Manager::route_rs_rebuild(int replica, int node_index,
                               std::uint64_t barrier) {
  wire::RsRebuildCmd cmd;
  cmd.barrier = barrier;
  std::vector<int> survivors;
  for (int i : groups_.group_members(node_index)) {
    if (i == node_index || dead_roles_.count({replica, i}))
      cmd.dead_indices.push_back(i);
    else
      survivors.push_back(i);
  }
  if (!recoverable(std::array{std::pair{replica, node_index}}))
    return false;  // more losses than parity blocks: undecodable
  // A survivor that is dead-but-unreported cannot feed a piece; bail to the
  // ladder now rather than strand the wave (its report escalates anyway).
  for (int i : survivors)
    if (!env_.cluster->role_alive(replica, i)) return false;
  for (int i : survivors)
    env_.cluster->send_from_manager(replica, i, wire::kRsRebuildSend,
                                    rt::pack_payload(cmd));
  return true;
}

bool Manager::recoverable(std::span<const std::pair<int, int>> wave) const {
  return ckpt::recoverable(
      redundancy(), groups_, env_.config->rs_parity, wave,
      [this](int r, int i) {
        return dead_roles_.count({r, i}) || !env_.cluster->role_alive(r, i);
      });
}

void Manager::begin_recovery_checkpoint(int crashed_replica) {
  open_wave(crashed_replica, env_.cluster->nodes_per_replica(),
            next_barrier_++);
  std::uint8_t healthy_mask =
      static_cast<std::uint8_t>(1u << (1 - crashed_replica));
  request_checkpoint(healthy_mask, CkptPurpose::Recovery);
}

void Manager::rewind(std::uint8_t replica_mask) {
  for (int r = 0; r < 2; ++r) {
    if (!(replica_mask & (1u << r))) continue;
    env_.cluster->bump_app_epoch(r);
    done_nodes_[static_cast<std::size_t>(r)].clear();
  }
}

Manager::ActiveRecovery& Manager::open_wave(int crashed_replica,
                                            int restore_target,
                                            std::uint64_t barrier) {
  recovery_.emplace();
  recovery_->crashed_replica = crashed_replica;
  recovery_->restore_target = restore_target;
  recovery_->barrier = barrier;
  return *recovery_;
}

void Manager::quash_restores_through(std::uint64_t barrier) {
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < env_.cluster->nodes_per_replica(); ++i) {
      rt::Node* n = env_.cluster->role_node(r, i);
      if (n == nullptr || n->service() == nullptr) continue;
      static_cast<NodeAgent*>(n->service())->quash_restores_through(barrier);
    }
  }
}

std::uint64_t Manager::relaunch(std::uint64_t epoch) {
  // Modelled as a job relaunch by the scheduler: promote spares for every
  // dead role — including failures that have not been *reported* yet (a
  // simultaneous buddy-pair loss reaches here on the first report).
  for (int r = 0; r < 2; ++r)
    for (int i = 0; i < env_.cluster->nodes_per_replica(); ++i)
      if (!env_.cluster->role_alive(r, i) && !promote_and_install(r, i))
        return 0;
  dead_roles_.clear();
  weak_recovery_pending_ = false;
  recovery_.reset();
  ckpt_.reset();
  final_verify_epoch_ = 0;
  verified_epoch_ = epoch;
  rewind(3);
  return next_barrier_++;
}

void Manager::handle_restore_done(const wire::BarrierMsg& msg,
                                  int src_replica, int src_node) {
  if (!recovery_ || msg.barrier != recovery_->barrier) return;
  if (!recovery_->restored_nodes.insert({src_replica, src_node}).second)
    return;  // duplicate report
  if (static_cast<int>(recovery_->restored_nodes.size()) <
      recovery_->restore_target)
    return;
  finish_recovery();
}

void Manager::handle_link_failure(int src_replica, int src_node,
                                  int dst_replica, int dst_node) {
  if (complete_ || failed_) return;
  // The cluster reports this only for live-live links, but liveness may
  // have changed while the report was in flight; a dead endpoint means the
  // ordinary failure path (heartbeats / RAS sweep) owns the recovery.
  auto alive = [this](int r, int i) {
    return r < 0 || env_.cluster->role_alive(r, i);
  };
  if (!alive(src_replica, src_node) || !alive(dst_replica, dst_node)) return;
  log_warn("acr.manager") << "link (" << src_replica << "," << src_node
                          << ") -> (" << dst_replica << "," << dst_node
                          << ") exhausted its retry budget; degrading to "
                             "scratch restart";
  if (env_.config->adaptive) adaptive_.on_failure(now());
  restart_from_scratch();
}

void Manager::finish_recovery() {
  ACR_REQUIRE(recovery_, "finish_recovery without active recovery");
  if (recovery_->counts_as_recovery) {
    trace().record(now(), rt::TraceKind::RecoveryCompleted,
                   recovery_->crashed_replica);
    ++recoveries_;
  }
  // Second epoch bump at the barrier: anything sent between the restores
  // and this go is from the abandoned timeline and must not be delivered.
  for (int r = 0; r < 2; ++r)
    if (recovery_->crashed_replica < 0 || recovery_->crashed_replica == r)
      env_.cluster->bump_app_epoch(r);
  recovery_.reset();
  dead_roles_.clear();
  broadcast_participants(3, wire::kResume, {});
  schedule_tick();
  maybe_finalize();
  maybe_finish_drain();
}

void Manager::escalate_rollback_all() {
  // Re-entrant: overlapping failures during an escalation abandon the
  // current restore wave (its barrier id) and start a fresh one that
  // covers the newly dead roles as well.
  if (verified_epoch_ == 0) return restart_from_scratch();
  // Roles needing an assisted restore: currently dead ones, plus any
  // role already under recovery — its occupant may be a freshly promoted
  // spare that holds no checkpoint yet.
  for (int r = 0; r < 2; ++r)
    for (int i = 0; i < env_.cluster->nodes_per_replica(); ++i)
      if (!env_.cluster->role_alive(r, i)) dead_roles_.insert({r, i});
  if (!recoverable(std::vector(dead_roles_.begin(), dead_roles_.end())))
    return restart_from_scratch();
  for (const auto& [r, i] : dead_roles_) {
    if (env_.cluster->role_alive(r, i)) continue;  // spare already in place
    if (!promote_and_install(r, i)) return;
  }
  weak_recovery_pending_ = false;
  std::uint64_t barrier = next_barrier_++;
  // A second failure mid-recovery lands here with the abandoned wave's
  // rollback/rebuild commands possibly still in flight; waves are
  // serialized, never interleaved.
  quash_restores_through(barrier - 1);
  trace().record(now(), rt::TraceKind::Rollback, -1, -1,
                 "escalated rollback to epoch=" +
                     std::to_string(verified_epoch_) +
                     " barrier=" + std::to_string(barrier));
  rewind(3);
  wire::RestoreCmdMsg roll{verified_epoch_, barrier};
  // RS routes ONE command per group covering its whole dead set; don't
  // re-route for the group's second dead member.
  std::set<std::pair<int, int>> rs_routed_groups;
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < env_.cluster->nodes_per_replica(); ++i) {
      if (!dead_roles_.count({r, i})) {
        env_.cluster->send_from_manager(r, i, wire::kRollback,
                                        rt::pack_payload(roll));
      } else if (redundancy() != ckpt::Scheme::Rs ||
                 rs_routed_groups.insert({r, groups_.group_of(i)}).second) {
        bool routed = route_restore(r, i, barrier);
        ACR_REQUIRE(routed, "escalation with an unrebuildable group");
      }
    }
  }
  open_wave(-1, 2 * env_.cluster->nodes_per_replica(), barrier);
}

void Manager::restart_from_scratch(bool allow_fetch) {
  recovery_.reset();
  ckpt_.reset();
  // Recovery-ladder rung 2: before throwing all progress away, restore the
  // whole job from the newest fully-flushed L2 epoch. Every pre-tier call
  // site of the scratch path goes through here, so enabling the tier
  // upgrades them all; a failed/impossible fetch re-enters with
  // allow_fetch=false and genuinely restarts at iteration zero.
  if (allow_fetch && try_fetch_from_durable()) return;
  ++scratch_restarts_;
  trace().record(now(), rt::TraceKind::Rollback, -1, -1,
                 "restart from scratch");
  std::uint64_t barrier = relaunch(0);
  if (barrier == 0) return;
  // The scratch restart is itself a restore wave: raise every agent's
  // restore floor past the abandoned waves. Rollback or rebuild commands of
  // those waves may still be in flight; replaying one after the reset would
  // restore pre-restart state on part of the cluster and wedge the
  // application.
  env_.cluster->engine().schedule_after(0.0, [this, barrier]() {
    for (int r = 0; r < 2; ++r) {
      for (int i = 0; i < env_.cluster->nodes_per_replica(); ++i) {
        rt::Node& n = env_.cluster->node_at(r, i);
        n.create_tasks();
        installer_(n)->quash_restores_through(barrier);
        n.start_tasks();
      }
    }
  });
  broadcast_participants(3, wire::kResume, {});
  schedule_tick();
  maybe_finish_drain();
}

// ---------------------------------------------------------------------------
// Durable tier: flush orchestration, fetch waves, drain.
// ---------------------------------------------------------------------------

void Manager::maybe_request_flush(std::uint64_t epoch,
                                  std::uint8_t participants) {
  if (env_.tier == nullptr) return;
  if (committed_ % env_.config->tier.flush_interval != 0) return;
  wire::FlushCmdMsg msg{epoch, 0};
  broadcast_participants(participants, wire::kFlushCommand,
                         rt::pack_payload(msg));
}

void Manager::handle_flush_done(const wire::FlushDoneMsg& msg,
                                int src_replica, int src_node) {
  if (env_.tier == nullptr) return;
  if (msg.scavenged) ++l2_scavenges_;
  std::uint64_t complete = env_.tier->newest_complete_epoch();
  if (complete > l2_durable_epoch_) {
    l2_durable_epoch_ = complete;
    trace().record(now(), rt::TraceKind::EpochDurable, -1, -1,
                   "epoch=" + std::to_string(complete));
    // Older L2 epochs are strictly dominated; keep the boundary only.
    env_.tier->prune(complete);
    if (env_.config->adaptive) {
      // Feed the adaptive controller the amortized flush cost per
      // checkpoint period so its Young/Daly delta reflects both tiers.
      const ckpt::TierConfig& t = env_.config->tier;
      double bytes = static_cast<double>(
          env_.tier->blob_bytes(src_replica, src_node, complete));
      double per_flush = t.latency + bytes / t.bandwidth;
      adaptive_.set_flush_overhead(
          per_flush / static_cast<double>(t.flush_interval));
    }
  }
  maybe_finish_drain();
}

bool Manager::try_fetch_from_durable() {
  if (env_.tier == nullptr) return false;
  std::uint64_t epoch = env_.tier->newest_complete_epoch();
  if (epoch == 0) return false;
  // A fetch wave is a full-job relaunch served from L2: every dead role
  // gets a spare (or doubles up), every live role abandons its timeline.
  std::uint64_t barrier = relaunch(epoch);
  if (barrier == 0) return true;  // pool exhausted: the job is over
  // Only THIS wave's restores may apply.
  quash_restores_through(barrier - 1);
  ++l2_fetch_waves_;
  trace().record(now(), rt::TraceKind::FetchStarted, -1, -1,
                 "wave epoch=" + std::to_string(epoch) +
                     " barrier=" + std::to_string(barrier));
  wire::RestoreCmdMsg cmd{epoch, barrier};
  for (int r = 0; r < 2; ++r)
    broadcast(r, wire::kFetchFromDurable, rt::pack_payload(cmd));
  ActiveRecovery& wave =
      open_wave(-1, 2 * env_.cluster->nodes_per_replica(), barrier);
  wave.counts_as_recovery = false;
  wave.fetch_epoch = epoch;
  return true;
}

void Manager::request_drain() {
  if (complete_ || failed_ || drain_requested_) return;
  drain_requested_ = true;
  trace().record(now(), rt::TraceKind::DrainRequested, -1, -1,
                 "verified epoch=" + std::to_string(verified_epoch_));
  if (tick_armed_) {
    env_.cluster->engine().cancel(tick_id_);
    tick_armed_ = false;
  }
  maybe_finish_drain();
}

void Manager::maybe_finish_drain() {
  if (!drain_requested_ || drained_ || complete_ || failed_) return;
  if (ckpt_ || recovery_ || weak_recovery_pending_) return;
  if (env_.tier != nullptr && verified_epoch_ != 0 &&
      l2_durable_epoch_ < verified_epoch_) {
    // The newest verified epoch is not fully durable yet: push urgent
    // (scavenge-class) flushes to exactly the roles whose blobs are
    // missing, once per target epoch.
    if (drain_flush_epoch_ < verified_epoch_) {
      drain_flush_epoch_ = verified_epoch_;
      wire::FlushCmdMsg msg{verified_epoch_, 1};
      for (int r = 0; r < 2; ++r) {
        for (int i = 0; i < env_.cluster->nodes_per_replica(); ++i) {
          if (env_.tier->has(r, i, verified_epoch_)) continue;
          env_.cluster->send_from_manager(r, i, wire::kFlushCommand,
                                          rt::pack_payload(msg));
        }
      }
    }
    return;  // handle_flush_done re-enters when the drain makes progress
  }
  drained_ = true;
  trace().record(now(), rt::TraceKind::DrainCompleted, -1, -1,
                 "durable epoch=" + std::to_string(l2_durable_epoch_));
}

// ---------------------------------------------------------------------------
// Completion.
// ---------------------------------------------------------------------------

bool Manager::final_verification_enabled() const {
  return env_.config->verify_at_completion &&
         env_.config->scheme != ResilienceScheme::HardOnly;
}

void Manager::declare_complete(int replica) {
  if (complete_) return;
  complete_ = true;
  trace().record(now(), rt::TraceKind::JobComplete, replica, -1,
                 final_verification_enabled() ? "verified result"
                                              : "replica finished");
  if (tick_armed_) env_.cluster->engine().cancel(tick_id_);
  tick_armed_ = false;
}

void Manager::maybe_finalize() {
  if (complete_ || failed_ || !final_verification_enabled()) return;
  int n = env_.cluster->nodes_per_replica();
  if (static_cast<int>(done_nodes_[0].size()) != n ||
      static_cast<int>(done_nodes_[1].size()) != n)
    return;
  if (ckpt_ || recovery_ || weak_recovery_pending_) return;
  if (final_verify_epoch_ != 0) return;  // already running
  // Final comparison checkpoint: every task sits at its last iteration, so
  // this cut compares the complete answers of the two replicas.
  request_checkpoint(3, CkptPurpose::Periodic);
  final_verify_epoch_ = ckpt_->epoch;
}

void Manager::handle_node_done(const rt::Message& m) {
  if (m.src_replica < 0 || m.src_replica > 1) return;
  auto& set = done_nodes_[static_cast<std::size_t>(m.src_replica)];
  set.insert(m.src.node_index);
  if (static_cast<int>(set.size()) != env_.cluster->nodes_per_replica())
    return;
  if (!final_verification_enabled()) {
    declare_complete(m.src_replica);
    return;
  }
  maybe_finalize();
}

// ---------------------------------------------------------------------------
// Dispatch.
// ---------------------------------------------------------------------------

void Manager::on_message(const rt::Message& m) {
  switch (m.tag) {
    case wire::kReplicaQuiesced:
      return handle_replica_quiesced(rt::unpack_payload<wire::ProgressMsg>(m),
                                     m.src_replica);
    case wire::kReplicaReady:
      return handle_replica_ready(rt::unpack_payload<wire::ReadyMsg>(m),
                                  m.src_replica);
    case wire::kReplicaVerdict:
      return handle_verdict(rt::unpack_payload<wire::VerdictMsg>(m));
    case wire::kPackDone:
      return handle_pack_done(rt::unpack_payload<wire::EpochMsg>(m),
                              m.src.node_index);
    case wire::kSuspectDead:
      return handle_suspect(rt::unpack_payload<wire::SuspectMsg>(m));
    case wire::kRestoreDone:
      return handle_restore_done(rt::unpack_payload<wire::BarrierMsg>(m),
                                 m.src_replica, m.src.node_index);
    case wire::kNeedBuddyRestore: {
      // A checkpoint-less node was told to roll back: route a recovery
      // image to it under the same barrier. Where none can be routed the
      // wave degrades to a scratch restart.
      auto need = rt::unpack_payload<wire::BarrierMsg>(m);
      if (!recovery_ || need.barrier != recovery_->barrier) return;
      if (!route_restore(m.src_replica, m.src.node_index, need.barrier))
        restart_from_scratch();
      return;
    }
    case wire::kRsRebuildImpossible: {
      // A survivor (or the spare itself) found the rebuild unservable —
      // parity exchange raced the failure, or pieces were inconsistent, or
      // a reconstructed image failed its CRC check. Only the active wave
      // may trigger the fallback; stragglers from an abandoned barrier are
      // moot. restart_from_scratch tries the L2 fetch rung first.
      auto bar = rt::unpack_payload<wire::BarrierMsg>(m);
      if (recovery_ && bar.barrier == recovery_->barrier) {
        log_warn("acr.manager")
            << "group rebuild impossible (barrier " << bar.barrier
            << ", reported by (" << m.src_replica << "," << m.src.node_index
            << ")); falling down the recovery ladder";
        restart_from_scratch();
      }
      return;
    }
    case wire::kFlushDone:
      return handle_flush_done(rt::unpack_payload<wire::FlushDoneMsg>(m),
                               m.src_replica, m.src.node_index);
    case wire::kFetchFailed: {
      // A node's L2 blob vanished under an active fetch wave. Abandon the
      // wave and restart genuinely from scratch — re-fetching would target
      // the same incomplete epoch.
      auto bar = rt::unpack_payload<wire::BarrierMsg>(m);
      if (!recovery_ || recovery_->fetch_epoch == 0 ||
          bar.barrier != recovery_->barrier)
        return;
      log_warn("acr.manager")
          << "l2 fetch failed on (" << m.src_replica << ","
          << m.src.node_index << ") barrier " << bar.barrier
          << "; degrading to scratch restart";
      restart_from_scratch(/*allow_fetch=*/false);
      return;
    }
    case wire::kNodeDone:
      return handle_node_done(m);
    default:
      log_warn("acr.manager") << "unknown tag " << m.tag;
  }
}

}  // namespace acr
