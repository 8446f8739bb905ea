// Job-level ACR manager.
//
// Logically centralized orchestration: checkpoint timing (fixed or
// adaptive, §2.2), the cross-replica half of the consensus (collecting the
// two replica roots' reductions and broadcasting the decided iteration),
// commit/rollback decisions from the SDC verdict, and the three recovery
// schemes of §2.3. In the paper this role is played by designated runtime
// nodes; here it is one object whose messages to/from node agents travel
// through the same modelled network.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "acr/config.h"
#include "acr/node_agent.h"
#include "failure/adaptive_interval.h"
#include "rt/cluster.h"

namespace acr {

class Manager {
 public:
  /// Called when a spare node is promoted so the runtime can install a
  /// fresh NodeAgent on it; returns the agent (already start()ed).
  using AgentInstaller = std::function<NodeAgent*(rt::Node&)>;

  Manager(AcrEnv env, AgentInstaller installer);

  /// Register as the cluster's manager hook and arm the periodic timer.
  void start();

  /// Kick off an unscheduled checkpoint right now (failure-prediction hook,
  /// §2.2: "checkpointing right before a potential failure occurs").
  void request_immediate_checkpoint();

  /// An out-of-band failure observation (an idle spare died in a burst —
  /// nothing heartbeats a pooled spare, so the RAS injector reports it
  /// directly). Feeds the adaptive-interval estimator: correlated arrivals
  /// tighten the checkpoint period just like detected role failures.
  void note_out_of_band_failure();

  /// A repaired node re-entered the spare pool. Under HardOnly (no
  /// periodic checkpoints) doubled roles are relieved here; otherwise the
  /// next commit picks them up (un-doubling right after a commit loses the
  /// least progress to its rollback).
  void note_spare_available();

  /// Halt-control surface (--halt-after): stop starting new checkpoints,
  /// drain the newest verified epoch to the durable tier, then mark the job
  /// drained. With the tier disabled (or nothing verified) the drain
  /// completes as soon as no protocol is in flight.
  void request_drain();

  bool job_complete() const { return complete_; }
  bool job_failed() const { return failed_; }
  bool job_drained() const { return drained_; }

  // --- counters (cross-checked against the TraceLog in tests) ---------------
  std::uint64_t checkpoints_committed() const { return committed_; }
  std::uint64_t sdc_rollbacks() const { return sdc_rollbacks_; }
  std::uint64_t hard_failures_detected() const { return hard_failures_; }
  std::uint64_t recoveries_completed() const { return recoveries_; }
  std::uint64_t scratch_restarts() const { return scratch_restarts_; }
  double current_interval() const;
  std::uint64_t verified_epoch() const { return verified_epoch_; }
  /// Newest epoch every role of every replica has published to L2.
  std::uint64_t l2_newest_durable() const { return l2_durable_epoch_; }
  /// Fetch waves started (recoveries served from L2 instead of scratch).
  std::uint64_t l2_fetch_waves() const { return l2_fetch_waves_; }
  /// Urgent (drain/scavenge) flushes that actually published an image.
  std::uint64_t l2_scavenges() const { return l2_scavenges_; }

 private:
  enum class CkptPurpose { Periodic, Recovery };

  struct ActiveCheckpoint {
    std::uint64_t epoch = 0;
    std::uint8_t participants = 3;
    CkptPurpose purpose = CkptPurpose::Periodic;
    // Contributions are tracked by sender identity, not by countdown: a
    // duplicated or replayed report can never double-decrement a counter
    // and fire a phase transition early.
    int quiesced_target = 0;
    std::set<int> quiesced_replicas;
    int ready_target = 0;
    std::set<int> ready_replicas;
    int packdone_target = 0;  ///< recovery checkpoints only
    std::set<int> packdone_nodes;
    std::uint64_t max_progress = 0;
  };

  struct ActiveRecovery {
    /// Replica whose nodes restore, or -1 when both do. Its app epoch is
    /// bumped again when the resume barrier opens.
    int crashed_replica = 0;
    int restore_target = 0;
    std::set<std::pair<int, int>> restored_nodes;
    /// Restore wave this recovery waits on; stale kRestoreDone from an
    /// abandoned wave (re-escalation) must not count.
    std::uint64_t barrier = 0;
    /// False for plain rollbacks (SDC) that reuse the restore barrier but
    /// are not hard-error recoveries.
    bool counts_as_recovery = true;
    /// Non-zero when this wave restores from the durable tier: the L2 epoch
    /// being fetched. A failure mid-wave retries the fetch (fresh barrier)
    /// rather than escalating to a rollback of state that no longer exists.
    std::uint64_t fetch_epoch = 0;
  };

  void on_message(const rt::Message& m);

  // Checkpoint path. Reports carry the sender's identity so contributions
  // are idempotent under a duplicating/reordering network.
  void request_checkpoint(std::uint8_t participants, CkptPurpose purpose);
  void handle_replica_quiesced(const wire::ProgressMsg& msg, int src_replica);
  void handle_replica_ready(const wire::ReadyMsg& msg, int src_replica);
  void try_start_pack();
  void handle_verdict(const wire::VerdictMsg& msg);
  void handle_pack_done(const wire::EpochMsg& msg, int src_node);
  void commit_checkpoint();
  void rollback_sdc();

  // Failure path.
  void handle_suspect(const wire::SuspectMsg& msg);
  void handle_suspect_role(int replica, int node_index);
  void start_recovery(int replica, int node_index);
  /// Strong-scheme single-replica wave (Fig. 4a): the promoted spare gets
  /// its image from route_restore (the buddy's verified copy, or a group
  /// rebuild under rs) while the rest of its replica rolls back locally.
  void start_restore_wave(int replica, int node_index);
  /// The one place that decides where a dead role's image comes from, under
  /// `barrier`. Partner: the buddy ships its verified copy (nothing is sent
  /// when the buddy is dead too; its own watchers escalate). Rs: the group
  /// rebuild of route_rs_rebuild. False when no remote copy can be routed
  /// (local, or a failed rs rebuild): the caller falls down the ladder.
  bool route_restore(int replica, int node_index, std::uint64_t barrier);
  /// Order the group survivors of (replica, node_index) to feed rebuild
  /// pieces under `barrier`: one RsRebuildCmd per survivor names the
  /// group's WHOLE dead set (node_index plus any dead_roles_ group-mates),
  /// so one wave covers a multi-loss burst. False when recoverable() fails
  /// (more losses than parity) or when a survivor is dead but unreported,
  /// so this wave cannot be served now: the caller falls down the ladder.
  bool route_rs_rebuild(int replica, int node_index, std::uint64_t barrier);
  /// ckpt::recoverable over the live cluster: a role's image counts as lost
  /// while the role is in dead_roles_ or dead.
  bool recoverable(std::span<const std::pair<int, int>> wave) const;
  ckpt::Scheme redundancy() const { return env_.config->redundancy; }
  void begin_recovery_checkpoint(int crashed_replica);

  // Restore-wave building blocks shared by every rung.
  /// Abandon the current timeline of the replicas in `replica_mask`: bump
  /// their app epoch and forget their done reports.
  void rewind(std::uint8_t replica_mask);
  /// Start waiting on `barrier` for `restore_target` kRestoreDone reports.
  /// `crashed_replica` < 0 means both replicas restore.
  ActiveRecovery& open_wave(int crashed_replica, int restore_target,
                            std::uint64_t barrier);
  /// Raise every live agent's restore floor to `barrier`, so rollback or
  /// rebuild commands of abandoned waves still in flight cannot re-apply
  /// old state after a newer wave's restores land.
  void quash_restores_through(std::uint64_t barrier);
  /// Whole-job reset shared by the scratch and L2 fetch rungs: promote a
  /// spare for every dead role, drop all protocol state, set the verified
  /// epoch to `epoch` and rewind both replicas. Returns the new wave's
  /// barrier, or 0 when the spare pool ran dry (the job has failed).
  std::uint64_t relaunch(std::uint64_t epoch);
  void handle_restore_done(const wire::BarrierMsg& msg, int src_replica,
                           int src_node);
  void finish_recovery();
  /// Degradation path: a reliable link between two live endpoints exhausted
  /// its retry budget. Per-link protocol state is unrecoverable, so the job
  /// falls back to a scratch restart (reported out-of-band by the RAS).
  void handle_link_failure(int src_replica, int src_node, int dst_replica,
                           int dst_node);
  void escalate_rollback_all();
  /// Last rung of the recovery ladder; abandons any active checkpoint or
  /// wave. When `allow_fetch`, first tries the L2-fetch rung
  /// (try_fetch_from_durable); only a tier with no complete epoch (or a
  /// failed fetch wave retrying) actually restarts at zero.
  void restart_from_scratch(bool allow_fetch = true);
  bool promote_and_install(int replica, int node_index);

  // Durable tier (all no-ops unless env_.tier is attached, which happens
  // exactly when the config enables it — the gate keeping no-L2 runs
  // byte-identical).
  /// After the `epoch` commit: order the committing replicas to drain their
  /// new verified images to L2 (every flush_interval-th commit).
  void maybe_request_flush(std::uint64_t epoch, std::uint8_t participants);
  void handle_flush_done(const wire::FlushDoneMsg& msg, int src_replica,
                         int src_node);
  /// Promote spares for all dead roles and start a fetch wave targeting the
  /// newest fully-flushed L2 epoch. False when the tier is disabled or
  /// holds no complete epoch (caller falls through to scratch).
  bool try_fetch_from_durable();
  /// Drain progress: flush what is missing, else declare the job drained.
  void maybe_finish_drain();
  /// Shrink-to-survive epilogue: when idle with a spare in the pool and a
  /// doubled role outstanding, retire the lodger and run a (non-counting)
  /// recovery to move the role onto real hardware. One role per call.
  void maybe_undouble();

  // Completion.
  void handle_node_done(const rt::Message& m);
  bool final_verification_enabled() const;
  /// Launch the final verification checkpoint (or declare completion) once
  /// the preconditions hold; safe to call from any state change.
  void maybe_finalize();
  void declare_complete(int replica);

  // Timer.
  void schedule_tick();
  void tick();

  // RAS sweep: the external system component of the paper's failure model.
  // Periodically reconciles the manager's view with actual node liveness,
  // catching deaths whose heartbeat watchers are themselves dead.
  void guard_tick();

  // Plumbing.
  // Broadcast payloads are Buffers: every recipient's message shares the
  // one packed allocation (refcount bump per fan-out, no per-node copy).
  // `bytes_on_wire` overrides the modelled wire size (default: computed
  // from the payload).
  void broadcast(int replica, int tag, buf::Buffer payload,
                 double bytes_on_wire = -1.0);
  void broadcast_participants(std::uint8_t participants, int tag,
                              buf::Buffer payload,
                              double bytes_on_wire = -1.0);
  double now() const;
  rt::TraceLog& trace();

  AcrEnv env_;
  AgentInstaller installer_;
  failure::AdaptiveIntervalController adaptive_;
  /// rs parity-group membership (disabled under local and partner).
  ckpt::GroupMap groups_;

  std::optional<ActiveCheckpoint> ckpt_;
  std::optional<ActiveRecovery> recovery_;
  bool weak_recovery_pending_ = false;
  int weak_crashed_replica_ = 0;

  std::set<std::pair<int, int>> dead_roles_;
  std::array<std::set<int>, 2> done_nodes_;
  bool complete_ = false;
  bool failed_ = false;

  std::uint64_t next_epoch_ = 1;
  std::uint64_t next_barrier_ = 1;
  std::uint64_t verified_epoch_ = 0;
  /// Epoch of the in-flight final verification checkpoint (0 = none).
  std::uint64_t final_verify_epoch_ = 0;

  std::uint64_t committed_ = 0;
  std::uint64_t sdc_rollbacks_ = 0;
  std::uint64_t hard_failures_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t scratch_restarts_ = 0;

  // Durable-tier state (inert while the tier is disabled).
  bool drain_requested_ = false;
  bool drained_ = false;
  std::uint64_t l2_durable_epoch_ = 0;   ///< newest complete epoch seen
  std::uint64_t drain_flush_epoch_ = 0;  ///< epoch the drain last pushed
  std::uint64_t l2_fetch_waves_ = 0;
  std::uint64_t l2_scavenges_ = 0;

  rt::Engine::EventId tick_id_ = 0;
  bool tick_armed_ = false;
};

}  // namespace acr
