// Virtual cluster: two replicas of logical nodes plus a spare pool, a
// latency model, and delivery/fail-over machinery, all over one virtual
// clock. This is the stand-in for the Charm++-on-BG/P substrate of the
// paper: protocols and application code are real, the wires are simulated.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/group.h"
#include "common/rng.h"
#include "failure/net_faults.h"
#include "net/link_load.h"
#include "net/reliable.h"
#include "rt/engine.h"
#include "rt/message.h"
#include "rt/node.h"
#include "topology/mapping.h"

namespace acr::rt {

// ---------------------------------------------------------------------------
// Trace of protocol-level events (drives Fig. 12 and the integration tests).
// ---------------------------------------------------------------------------

enum class TraceKind {
  JobStart,
  CheckpointRequested,
  CheckpointIterationDecided,
  CheckpointPacked,
  CheckpointCommitted,
  SdcInjected,
  SdcDetected,
  HardFailureInjected,
  HardFailureDetected,
  RecoveryStarted,
  RecoveryCompleted,
  Rollback,
  JobComplete,
  StaleMessageDropped,  ///< app message from an abandoned epoch discarded
  LinkFailure,          ///< reliable link exhausted its retry budget
  SpareFailed,          ///< a pooled (idle) spare died
  NodeRepaired,         ///< dead hardware returned to the spare pool
  SparePoolLow,         ///< pool reached a new minimum (lifecycle tracing)
  RoleDoubled,          ///< shrink-to-survive: role remapped onto a survivor
  RoleUndoubled,        ///< a repaired spare relieved a doubled role
  FlushStarted,         ///< L2 tier: a node began draining a verified epoch
  FlushCompleted,       ///< L2 tier: a node's image became durable
  FlushSuperseded,      ///< L2 tier: a newer commit cancelled an active flush
  EpochDurable,         ///< L2 tier: every role of an epoch is durable
  FetchStarted,         ///< L2 tier: fetch wave targeting a durable epoch
  FetchCompleted,       ///< L2 tier: a node restored from its durable image
  DrainRequested,       ///< halt control: flush-newest-and-stop requested
  DrainCompleted,       ///< halt control: newest epoch durable, job halted
  DeltaShipped,         ///< codec: dirty-chunk frame sent instead of a full
  DeltaFallback,        ///< codec: delta base unusable; full image requested
};

const char* trace_kind_name(TraceKind k);

/// Bitset selecting which OPTIONAL trace families are recorded. Core
/// protocol events (checkpoints, failures, recoveries) are always traced;
/// these bits gate the chatty per-feature kinds so that runs without a
/// feature keep a byte-identical trace (the PR 3/5 discipline). This
/// replaces the per-feature enable_*_trace booleans — new features take a
/// bit, not another setter.
enum TraceMask : std::uint32_t {
  kTraceSpareLifecycle = 1u << 0,  ///< SparePoolLow pool-minimum events
  kTraceTier = 1u << 1,            ///< L2 flush/fetch/drain events
  kTraceCodec = 1u << 2,           ///< codec delta-shipped/fallback events
};

struct TraceEvent {
  double time = 0.0;
  TraceKind kind{};
  int replica = -1;
  int node_index = -1;
  std::string detail;
};

class TraceLog {
 public:
  void record(double time, TraceKind kind, int replica = -1,
              int node_index = -1, std::string detail = "");
  const std::vector<TraceEvent>& events() const { return events_; }
  std::size_t count(TraceKind kind) const;
  /// First event of `kind` at or after `t`, or nullptr.
  const TraceEvent* find_first(TraceKind kind, double t = 0.0) const;

 private:
  std::vector<TraceEvent> events_;
};

// ---------------------------------------------------------------------------
// Cluster configuration.
// ---------------------------------------------------------------------------

struct ClusterConfig {
  int nodes_per_replica = 4;
  int spare_nodes = 1;

  /// Intra-replica app message latency: alpha + bytes * beta, plus a
  /// uniform jitter fraction that desynchronizes task progress (exercising
  /// the checkpoint consensus).
  double app_alpha = 20e-6;
  double app_byte_time = 1.0 / 1.0e9;
  double app_jitter = 0.10;

  /// Inter-replica (buddy) hop count; derived from the mapping scheme when
  /// a torus shape is supplied to map_onto_torus(), otherwise this default.
  int buddy_hops = 4;

  /// Machine cost parameters for checkpoint pack/compare/transfer.
  net::NetworkParams net;

  /// Wire fault model for protocol (service/manager) traffic. All rates
  /// default to zero; when any is non-zero the cluster routes protocol
  /// traffic through the reliable ack/retransmit transport.
  failure::NetFaultConfig net_faults;
  /// Reliable-delivery tuning (retry budget, timeouts, window).
  net::ReliableConfig reliable;

  /// Checkpoint parity-group width (ckpt layer, rs scheme): consecutive
  /// node indices of each replica form groups of this size for parity
  /// exchange and rebuild routing. <= 0 disables grouping (local/partner
  /// schemes need none).
  int ckpt_group_size = 0;

  /// Simulated L2 durable-tier channel (per-node burst-buffer pipe).
  /// bandwidth == 0 leaves the tier's cost model unused.
  net::L2Params l2;

  /// Retired event-queue shard count. The engine is one serial heap, so
  /// a value above 1 is a RequireError. The field stays because the
  /// end-to-end benchmark harness (perfbench/) sets it to 1 and prints it
  /// with its configuration.
  int engine_lanes = 0;

  std::uint64_t seed = 0xAC0FF00DULL;
};

class Cluster {
 public:
  using TaskFactory = std::function<std::vector<std::unique_ptr<Task>>(
      int replica, int node_index)>;

  Cluster(Engine& engine, const ClusterConfig& config);

  Engine& engine() { return engine_; }
  const ClusterConfig& config() const { return config_; }
  TraceLog& trace() { return trace_; }

  /// Derive buddy_hops from a torus shape + mapping scheme (§4.2): the
  /// maximum buddy distance of the mapping becomes the inter-replica hop
  /// count used in the latency model.
  void map_onto_torus(const topo::Torus3D& torus, topo::MappingScheme scheme,
                      int mixed_chunk = 2);

  // --- setup -----------------------------------------------------------------
  void set_task_factory(TaskFactory factory) { factory_ = std::move(factory); }
  const TaskFactory& task_factory() const { return factory_; }
  /// Create all nodes and their tasks (both replicas + spares).
  void populate();
  /// Fire on_start for every task at the current virtual time.
  void start_application();

  // --- topology / lookup ------------------------------------------------------
  int nodes_per_replica() const { return config_.nodes_per_replica; }
  /// Physical node currently playing (replica, node_index).
  Node& node_at(int replica, int node_index);
  bool role_alive(int replica, int node_index);
  Node& physical_node(int physical_id) {
    return *nodes_.at(static_cast<std::size_t>(physical_id));
  }
  int num_physical_nodes() const { return static_cast<int>(nodes_.size()); }
  /// Hardware nodes only: the 2n + spares machines populate() racked.
  /// Lodger nodes created by double_up() are virtual hosts beyond this
  /// range — they share a survivor's hardware and cannot fail or be
  /// repaired independently of it.
  int num_hardware_nodes() const { return num_hardware_; }
  int spares_remaining() const;
  /// Physical ids of currently-alive hardware, ascending (burst victim
  /// selection).
  std::vector<int> alive_hardware() const;
  /// Node playing (replica, node_index), or nullptr when the role is
  /// unmanned (node_at REQUIREs instead — use this where vacancy is legal).
  Node* role_node(int replica, int node_index);

  /// Checkpoint parity-group membership (per replica; groups never span
  /// replicas). Empty/disabled unless ckpt_group_size was configured.
  const ckpt::GroupMap& ckpt_groups() const { return ckpt_groups_; }

  // --- messaging ---------------------------------------------------------------
  /// Task-to-task within a replica. The payload Buffer is shared, not
  /// copied, into the in-flight message.
  void send_task(int replica, TaskAddr src, TaskAddr dst, int tag,
                 buf::Buffer payload);
  /// Node-service message (possibly across replicas). `bytes_on_wire`
  /// overrides the payload size for latency purposes — used when a
  /// checkpoint "transfer" is modelled without copying the actual bytes
  /// (checksum mode still pays only digest bytes, full mode pays the full
  /// checkpoint size). `attachment` carries bulk bytes (a checkpoint image)
  /// that alias the sender's buffer instead of being re-serialized.
  void send_service(int src_replica, int src_node, int dst_replica,
                    int dst_node, int tag, buf::Buffer payload,
                    double bytes_on_wire = -1.0, buf::Buffer attachment = {});

  /// Outstanding app (task-level) messages for a replica — the drain
  /// condition of checkpoint Phase 4.
  int in_flight_app_messages(int replica) const {
    return in_flight_.at(static_cast<std::size_t>(replica));
  }

  /// App-message epoch of a replica. Every task message is stamped with the
  /// sender replica's epoch; delivery drops messages from a previous epoch.
  /// ACR bumps the epoch whenever the replica's state jumps (rollback or
  /// recovery restore), so in-flight traffic from the abandoned timeline
  /// cannot leak into the restored one. (This is the runtime-level analogue
  /// of Charm++/FTC's checkpoint phase numbers.)
  std::uint64_t app_epoch(int replica) const {
    return app_epoch_.at(static_cast<std::size_t>(replica));
  }
  void bump_app_epoch(int replica) {
    ++app_epoch_.at(static_cast<std::size_t>(replica));
  }

  // --- failure / recovery ------------------------------------------------------
  /// Fail-stop the node currently playing (replica, node_index). Lodgers
  /// hosted on the dead hardware die with it.
  void kill_role(int replica, int node_index);
  /// Fail-stop a hardware node by physical id, whatever it is doing: a
  /// pooled spare dies idle (SpareFailed), a role-player takes its role
  /// down (HardFailureInjected, plus any lodgers it hosts). `why` lands in
  /// the trace detail. No-op on already-dead hardware.
  void kill_physical(int pid, const std::string& why);
  /// Return dead hardware to service as a pooled spare. Vacates its old
  /// role-table slot if still pointing at it (the role stays unmanned until
  /// the manager recovers it) and guards against double-pooling, so a
  /// promoted-then-repaired node is never counted twice. False if the node
  /// is alive or not repairable hardware.
  bool repair_node(int pid);
  /// Promote a spare to (replica, node_index). Creates fresh (empty) tasks.
  /// Returns the new physical node, or nullptr if the pool is exhausted.
  Node* promote_spare(int replica, int node_index);

  // --- shrink-to-survive (degraded mode) --------------------------------------
  /// Remap (replica, node_index) onto a surviving node of the same replica:
  /// a fresh *lodger* node is created for the role (preserving its logical
  /// index, so buddy/group/tree routing is untouched) and pinned to the
  /// least-loaded live host. Returns the lodger, or nullptr when no host
  /// survives in the replica. The lodger dies if its host dies.
  Node* double_up(int replica, int node_index);
  /// Undo a double_up: retire the lodger playing (replica, node_index),
  /// leaving the role unmanned for a standard spare recovery. False if the
  /// role is not currently played by a lodger.
  bool retire_lodger(int replica, int node_index);
  bool is_lodger(int pid) const { return lodger_host_.count(pid) != 0; }
  bool is_pooled_spare(int pid) const;
  /// Roles currently played by a live lodger, ascending.
  std::vector<std::pair<int, int>> doubled_roles();

  // --- spare-pool accounting ----------------------------------------------------
  struct SpareCounters {
    std::uint64_t promotions = 0;      ///< spares promoted into roles
    std::uint64_t spare_failures = 0;  ///< pooled spares that died idle
    std::uint64_t repairs = 0;         ///< dead hardware returned to pool
    int low_water = 0;                 ///< minimum pool size observed
    std::uint64_t roles_doubled = 0;   ///< shrink-to-survive transitions
    std::uint64_t roles_undoubled = 0; ///< doubled roles relieved by spares
  };
  const SpareCounters& spare_counters() const { return spare_counters_; }

  // --- optional trace families --------------------------------------------------
  /// Turn on the trace families selected by `mask` (TraceMask bits OR-ed).
  /// All are off by default so runs without a feature keep a byte-identical
  /// trace.
  void enable_trace(std::uint32_t mask) { trace_mask_ |= mask; }
  bool trace_enabled(TraceMask bit) const { return (trace_mask_ & bit) != 0; }
  /// Legacy alias for enable_trace(kTraceSpareLifecycle).
  void enable_spare_lifecycle_trace() { enable_trace(kTraceSpareLifecycle); }

  // --- L2 durable channel -------------------------------------------------------
  /// Charge an L2 write/read issued by physical node `pid` at the current
  /// virtual time; returns the delay until the operation completes (per-node
  /// busy-until queueing + latency + bytes/bandwidth). Pure arithmetic over
  /// virtual time — callers schedule the completion as a DES event, so L2
  /// traffic is deterministic at any kernel-thread count.
  double l2_write(int pid, double bytes);
  double l2_read(int pid, double bytes);
  /// Record the raw (pre-codec) size behind a flush; no time is charged.
  void l2_note_raw(double bytes) { l2_channel_.note_raw_write(bytes); }
  const net::L2ChannelModel::Stats& l2_stats() const {
    return l2_channel_.stats();
  }

  // --- manager channel -----------------------------------------------------------
  // The job-level ACR manager (failure handling, checkpoint timing) is a
  // logically centralized service (think: the replica-root node plus the
  // scheduler's RAS daemon). It exchanges messages with node agents through
  // the same latency model; src_replica = -1 marks manager-originated mail.
  using ManagerHook = std::function<void(const Message&)>;
  void set_manager_hook(ManagerHook hook) { manager_hook_ = std::move(hook); }
  /// Node agent -> manager.
  void send_to_manager(int src_replica, int src_node, int tag,
                       buf::Buffer payload);
  /// Manager -> node agent.
  void send_from_manager(int dst_replica, int dst_node, int tag,
                         buf::Buffer payload, double bytes_on_wire = -1.0);

  // --- network fault / delivery instrumentation --------------------------------
  /// Drops and escalations counted at the cluster layer (the transport and
  /// injector keep their own tallies, exposed below).
  struct NetCounters {
    std::uint64_t stale_epoch_drops = 0;  ///< app msgs from abandoned epochs
    std::uint64_t unmanned_drops = 0;     ///< app msgs to vacated roles
    std::uint64_t crc_drops = 0;          ///< frames failing CRC32C on arrival
    std::uint64_t dead_endpoint_drops = 0;  ///< frames arriving at a dead NIC
    std::uint64_t link_failures = 0;      ///< retry budgets exhausted
  };
  const NetCounters& net_counters() const { return net_counters_; }
  const net::LinkStats& link_stats() const { return transport_.stats(); }
  const failure::NetFaultCounters& net_fault_counters() const {
    return net_injector_.counters();
  }
  bool net_faults_enabled() const { return net_injector_.enabled(); }

  /// Called when a reliable link exhausts its retry budget between two live
  /// endpoints (out-of-band RAS report; the manager escalates to a scratch
  /// restart). Arguments: src_replica, src_node, dst_replica, dst_node,
  /// where replica -1 / node -1 denotes the manager endpoint.
  using LinkFailureHook = std::function<void(int, int, int, int)>;
  void set_link_failure_hook(LinkFailureHook hook) {
    link_failure_hook_ = std::move(hook);
  }

  // --- misc ---------------------------------------------------------------------
  Pcg32 make_rng(std::uint64_t salt) const;
  double app_latency(std::size_t bytes, Pcg32& jitter_rng);
  double service_latency(bool inter_replica, double bytes);
  std::uint64_t master_seed() const { return config_.seed; }

 private:
  friend class Node;
  friend class NodeTaskContext;

  /// A message riding the reliable transport, parked until acked/abandoned
  /// (the retransmit source). Keyed by (link, seq) in wire_store_.
  struct WireMsg {
    Message m;
    double latency = 0.0;     ///< nominal one-way flight time
    std::uint32_t crc = 0;    ///< CRC32C of the payload at send time
  };

  // Endpoint ids for the reliable transport: -1 is the manager, roles map
  // densely to replica * nodes_per_replica + node_index.
  int role_endpoint(int replica, int node_index) const {
    return replica * config_.nodes_per_replica + node_index;
  }
  static constexpr int kManagerEndpoint = -1;

  net::ReliableTransport::Hooks make_transport_hooks();
  /// Enqueue `m` on the reliable transport for link (src -> dst endpoints).
  void route_reliable(int src_endpoint, int dst_endpoint, Message m,
                      double wire_bytes);
  /// Put one copy of frame (link, seq) on the lossy wire.
  void transmit_frame(net::LinkKey link, net::ReliableTransport::Seq seq,
                      int attempt);
  /// A data-frame copy reached the destination NIC.
  void frame_arrived(net::LinkKey link, net::ReliableTransport::Seq seq,
                     net::ReliableTransport::Seq sender_base,
                     std::uint64_t generation, bool corrupt,
                     std::size_t corrupt_byte, int corrupt_bit);
  /// The transport delivered frame (link, seq) in order: hand it up.
  void dispatch_frame(net::LinkKey link, net::ReliableTransport::Seq seq);
  /// The transport gave up on frame (link, seq): escalate if both ends live.
  void link_gave_up(net::LinkKey link, net::ReliableTransport::Seq seq);
  bool endpoint_alive(int endpoint);
  /// Drop receiver-side stashed frames on links touching a reset endpoint.
  void purge_rx(int endpoint);

  /// Kill one physical node (resetting its role endpoint if it plays one)
  /// and cascade to any lodgers riding its hardware.
  void kill_pid(int pid);
  /// Follow lodger->host links down to real hardware.
  int resolve_host(int pid) const;
  /// Live lodgers currently hosted on hardware `pid`.
  int lodger_load(int pid) const;
  /// Track pool minima (low-water counter + optional trace).
  void note_pool_level();

  Engine& engine_;
  ClusterConfig config_;
  TraceLog trace_;
  TaskFactory factory_;
  ckpt::GroupMap ckpt_groups_;

  std::vector<std::unique_ptr<Node>> nodes_;
  /// role_table_[replica][node_index] -> physical id (-1 when unmanned).
  std::vector<std::vector<int>> role_table_;
  std::vector<int> spare_pool_;  ///< physical ids of unused spares
  int num_hardware_ = 0;  ///< nodes_ prefix that is real hardware
  /// Lodger pid -> hardware pid hosting it (shrink-to-survive doubling).
  /// Entries persist after a lodger dies; liveness decides relevance.
  std::map<int, int> lodger_host_;
  SpareCounters spare_counters_;
  std::uint32_t trace_mask_ = 0;
  net::L2ChannelModel l2_channel_;
  std::vector<int> in_flight_{0, 0};
  std::vector<std::uint64_t> app_epoch_{0, 0};
  Pcg32 jitter_rng_;
  ManagerHook manager_hook_;

  failure::NetFaultInjector net_injector_;
  net::ReliableTransport transport_;
  /// Staging slot for the message being handed to transport_.send(); the
  /// transmit hook files it into wire_store_ once the sequence is known.
  std::optional<WireMsg> outbox_;
  /// std::map: references stay valid across inserts (delivery re-enters
  /// send paths), and iteration order is deterministic.
  std::map<std::pair<net::LinkKey, net::ReliableTransport::Seq>, WireMsg>
      wire_store_;
  /// Receiver-side copy of frames that reached the NIC, held until the
  /// transport delivers them in order. Separate from wire_store_ because
  /// the sender may release its copy (ack received) while the receiver is
  /// still buffering the frame behind a hole.
  std::map<std::pair<net::LinkKey, net::ReliableTransport::Seq>, Message>
      rx_store_;
  NetCounters net_counters_;
  LinkFailureHook link_failure_hook_;
};

}  // namespace acr::rt
