#include "rt/cluster.h"

#include <algorithm>

#include "checksum/fold.h"
#include "common/logging.h"

namespace acr::rt {

const char* trace_kind_name(TraceKind k) {
  switch (k) {
    case TraceKind::JobStart: return "job-start";
    case TraceKind::CheckpointRequested: return "checkpoint-requested";
    case TraceKind::CheckpointIterationDecided: return "checkpoint-iteration";
    case TraceKind::CheckpointPacked: return "checkpoint-packed";
    case TraceKind::CheckpointCommitted: return "checkpoint-committed";
    case TraceKind::SdcInjected: return "sdc-injected";
    case TraceKind::SdcDetected: return "sdc-detected";
    case TraceKind::HardFailureInjected: return "hard-failure-injected";
    case TraceKind::HardFailureDetected: return "hard-failure-detected";
    case TraceKind::RecoveryStarted: return "recovery-started";
    case TraceKind::RecoveryCompleted: return "recovery-completed";
    case TraceKind::Rollback: return "rollback";
    case TraceKind::JobComplete: return "job-complete";
    case TraceKind::StaleMessageDropped: return "stale-message-dropped";
    case TraceKind::LinkFailure: return "link-failure";
    case TraceKind::SpareFailed: return "spare-failed";
    case TraceKind::NodeRepaired: return "node-repaired";
    case TraceKind::SparePoolLow: return "spare-pool-low";
    case TraceKind::RoleDoubled: return "role-doubled";
    case TraceKind::RoleUndoubled: return "role-undoubled";
    case TraceKind::FlushStarted: return "flush-started";
    case TraceKind::FlushCompleted: return "flush-completed";
    case TraceKind::FlushSuperseded: return "flush-superseded";
    case TraceKind::EpochDurable: return "epoch-durable";
    case TraceKind::FetchStarted: return "fetch-started";
    case TraceKind::FetchCompleted: return "fetch-completed";
    case TraceKind::DrainRequested: return "drain-requested";
    case TraceKind::DrainCompleted: return "drain-completed";
    case TraceKind::DeltaShipped: return "delta-shipped";
    case TraceKind::DeltaFallback: return "delta-fallback";
  }
  return "?";
}

void TraceLog::record(double time, TraceKind kind, int replica, int node_index,
                      std::string detail) {
  events_.push_back(TraceEvent{time, kind, replica, node_index,
                               std::move(detail)});
}

std::size_t TraceLog::count(TraceKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [&](const TraceEvent& e) { return e.kind == kind; }));
}

const TraceEvent* TraceLog::find_first(TraceKind kind, double t) const {
  for (const auto& e : events_)
    if (e.kind == kind && e.time >= t) return &e;
  return nullptr;
}

Cluster::Cluster(Engine& engine, const ClusterConfig& config)
    : engine_(engine),
      config_(config),
      ckpt_groups_(config.nodes_per_replica, config.ckpt_group_size),
      l2_channel_(config.l2),
      jitter_rng_(config.seed, 77),
      net_injector_(config.net_faults, config.seed ^ 0x9E7FA017C0FFEE11ULL),
      transport_(config.reliable, make_transport_hooks()) {
  ACR_REQUIRE(config.nodes_per_replica > 0, "need at least one node");
  ACR_REQUIRE(config.spare_nodes >= 0, "spare count must be non-negative");
  ACR_REQUIRE(config.engine_lanes <= 1,
              "the event engine is serial: engine_lanes must be <= 1");
}

void Cluster::map_onto_torus(const topo::Torus3D& torus,
                             topo::MappingScheme scheme, int mixed_chunk) {
  topo::ReplicaMapping mapping(torus, scheme, mixed_chunk);
  int max_dist = 0;
  for (int i = 0; i < mapping.nodes_per_replica(); ++i)
    max_dist = std::max(max_dist, mapping.buddy_distance(i));
  config_.buddy_hops = max_dist;
}

void Cluster::populate() {
  ACR_REQUIRE(nodes_.empty(), "populate() must be called once");
  ACR_REQUIRE(factory_ != nullptr, "task factory must be set before populate");
  int total = 2 * config_.nodes_per_replica + config_.spare_nodes;
  nodes_.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i)
    nodes_.push_back(std::make_unique<Node>(*this, i));

  role_table_.assign(2, std::vector<int>(
                            static_cast<std::size_t>(config_.nodes_per_replica),
                            -1));
  int next = 0;
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < config_.nodes_per_replica; ++i) {
      Node& n = *nodes_[static_cast<std::size_t>(next)];
      n.assign(r, i);
      n.create_tasks();
      role_table_[static_cast<std::size_t>(r)][static_cast<std::size_t>(i)] =
          next;
      ++next;
    }
  }
  for (int s = 0; s < config_.spare_nodes; ++s) spare_pool_.push_back(next++);
  num_hardware_ = total;
  spare_counters_.low_water = config_.spare_nodes;
}

void Cluster::start_application() {
  trace_.record(engine_.now(), TraceKind::JobStart);
  for (int r = 0; r < 2; ++r)
    for (int i = 0; i < config_.nodes_per_replica; ++i)
      node_at(r, i).start_tasks();
}

Node& Cluster::node_at(int replica, int node_index) {
  int pid = role_table_.at(static_cast<std::size_t>(replica))
                .at(static_cast<std::size_t>(node_index));
  ACR_REQUIRE(pid >= 0, "role is unmanned");
  return *nodes_[static_cast<std::size_t>(pid)];
}

bool Cluster::role_alive(int replica, int node_index) {
  int pid = role_table_.at(static_cast<std::size_t>(replica))
                .at(static_cast<std::size_t>(node_index));
  return pid >= 0 && nodes_[static_cast<std::size_t>(pid)]->alive();
}

int Cluster::spares_remaining() const {
  return static_cast<int>(spare_pool_.size());
}

std::vector<int> Cluster::alive_hardware() const {
  std::vector<int> out;
  for (int pid = 0; pid < num_hardware_; ++pid)
    if (nodes_[static_cast<std::size_t>(pid)]->alive()) out.push_back(pid);
  return out;
}

Node* Cluster::role_node(int replica, int node_index) {
  int pid = role_table_.at(static_cast<std::size_t>(replica))
                .at(static_cast<std::size_t>(node_index));
  return pid >= 0 ? nodes_[static_cast<std::size_t>(pid)].get() : nullptr;
}

bool Cluster::is_pooled_spare(int pid) const {
  return std::find(spare_pool_.begin(), spare_pool_.end(), pid) !=
         spare_pool_.end();
}

std::vector<std::pair<int, int>> Cluster::doubled_roles() {
  std::vector<std::pair<int, int>> out;
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < config_.nodes_per_replica; ++i) {
      int pid = role_table_[static_cast<std::size_t>(r)]
                           [static_cast<std::size_t>(i)];
      if (pid >= 0 && is_lodger(pid) &&
          nodes_[static_cast<std::size_t>(pid)]->alive())
        out.emplace_back(r, i);
    }
  }
  return out;
}

void Cluster::note_pool_level() {
  int level = static_cast<int>(spare_pool_.size());
  if (level >= spare_counters_.low_water) return;
  spare_counters_.low_water = level;
  if (trace_enabled(kTraceSpareLifecycle))
    trace_.record(engine_.now(), TraceKind::SparePoolLow, -1, -1,
                  "remaining=" + std::to_string(level));
}

double Cluster::l2_write(int pid, double bytes) {
  return l2_channel_.write(pid, engine_.now(), bytes);
}

double Cluster::l2_read(int pid, double bytes) {
  return l2_channel_.read(pid, engine_.now(), bytes);
}

double Cluster::app_latency(std::size_t bytes, Pcg32& jitter_rng) {
  double base = config_.app_alpha +
                static_cast<double>(bytes) * config_.app_byte_time;
  return base * (1.0 + config_.app_jitter * jitter_rng.uniform());
}

double Cluster::service_latency(bool inter_replica, double bytes) {
  int hops = inter_replica ? config_.buddy_hops : 2;
  return config_.net.alpha * hops + bytes * config_.net.beta();
}

void Cluster::send_task(int replica, TaskAddr src, TaskAddr dst, int tag,
                        buf::Buffer payload) {
  Message m;
  m.tag = tag;
  m.src_replica = m.dst_replica = replica;
  m.src = src;
  m.dst = dst;
  m.app_epoch = app_epoch_.at(static_cast<std::size_t>(replica));
  m.payload = std::move(payload);
  double lat = app_latency(m.size_bytes(), jitter_rng_);
  ++in_flight_.at(static_cast<std::size_t>(replica));
  engine_.schedule_after(lat, [this, m = std::move(m)]() mutable {
    --in_flight_.at(static_cast<std::size_t>(m.dst_replica));
    // Traffic from an abandoned timeline (pre-rollback) is dropped.
    if (m.app_epoch !=
        app_epoch_.at(static_cast<std::size_t>(m.dst_replica))) {
      ++net_counters_.stale_epoch_drops;
      trace_.record(engine_.now(), TraceKind::StaleMessageDropped,
                    m.dst_replica, m.dst.node_index);
      return;
    }
    int pid = role_table_[static_cast<std::size_t>(m.dst_replica)]
                         [static_cast<std::size_t>(m.dst.node_index)];
    if (pid < 0) {  // role unmanned: message disappears
      ++net_counters_.unmanned_drops;
      return;
    }
    nodes_[static_cast<std::size_t>(pid)]->deliver(m);
  });
}

void Cluster::send_service(int src_replica, int src_node, int dst_replica,
                           int dst_node, int tag, buf::Buffer payload,
                           double bytes_on_wire, buf::Buffer attachment) {
  Message m;
  m.tag = tag;
  m.src_replica = src_replica;
  m.dst_replica = dst_replica;
  m.src = TaskAddr{src_node, kServiceSlot};
  m.dst = TaskAddr{dst_node, kServiceSlot};
  m.payload = std::move(payload);
  m.attachment = std::move(attachment);
  double wire = bytes_on_wire >= 0.0 ? bytes_on_wire
                                     : static_cast<double>(m.size_bytes());
  if (net_injector_.enabled()) {
    int src_ep = src_replica < 0 ? kManagerEndpoint
                                 : role_endpoint(src_replica, src_node);
    route_reliable(src_ep, role_endpoint(dst_replica, dst_node), std::move(m),
                   wire);
    return;
  }
  // Perfect-wire fast path: identical event schedule to the pre-transport
  // cluster (the reliable layer's per-link FIFO would hold small frames
  // behind bulk ones, perturbing timing even with zero faults).
  double lat = service_latency(src_replica != dst_replica, wire);
  engine_.schedule_after(
      lat,
      [this, m = std::move(m)]() mutable {
        int pid = role_table_[static_cast<std::size_t>(m.dst_replica)]
                             [static_cast<std::size_t>(m.dst.node_index)];
        if (pid < 0) return;
        nodes_[static_cast<std::size_t>(pid)]->deliver(m);
      });
}

void Cluster::send_to_manager(int src_replica, int src_node, int tag,
                              buf::Buffer payload) {
  ACR_REQUIRE(manager_hook_ != nullptr, "no manager installed");
  Message m;
  m.tag = tag;
  m.src_replica = src_replica;
  m.dst_replica = -1;
  m.src = TaskAddr{src_node, kServiceSlot};
  m.dst = TaskAddr{-1, kServiceSlot};
  m.payload = std::move(payload);
  double wire = static_cast<double>(m.size_bytes());
  if (net_injector_.enabled()) {
    route_reliable(role_endpoint(src_replica, src_node), kManagerEndpoint,
                   std::move(m), wire);
    return;
  }
  double lat = service_latency(false, wire);
  engine_.schedule_after(
      lat, [this, m = std::move(m)]() { manager_hook_(m); });
}

void Cluster::send_from_manager(int dst_replica, int dst_node, int tag,
                                buf::Buffer payload, double bytes_on_wire) {
  send_service(-1, -1, dst_replica, dst_node, tag, std::move(payload),
               bytes_on_wire);
}

void Cluster::kill_pid(int pid) {
  Node& n = *nodes_.at(static_cast<std::size_t>(pid));
  if (!n.alive()) return;
  n.kill();
  // The NIC dies with the node: abandon its reliable conversations (their
  // payloads are released without give-up escalation — the death itself is
  // detected by heartbeats/RAS, not by retry exhaustion) and bump link
  // generations so in-flight frames from the dead incarnation are inert.
  if (n.assigned() &&
      role_table_[static_cast<std::size_t>(n.replica())]
                 [static_cast<std::size_t>(n.node_index())] == pid) {
    transport_.reset_endpoint(role_endpoint(n.replica(), n.node_index()));
    purge_rx(role_endpoint(n.replica(), n.node_index()));
  }
  // Lodgers share their host's hardware: its death is theirs too.
  for (const auto& [lodger, host] : lodger_host_)
    if (host == pid) kill_pid(lodger);
}

void Cluster::kill_role(int replica, int node_index) {
  int pid = role_table_.at(static_cast<std::size_t>(replica))
                .at(static_cast<std::size_t>(node_index));
  if (pid < 0) return;
  kill_pid(pid);
}

void Cluster::kill_physical(int pid, const std::string& why) {
  ACR_REQUIRE(pid >= 0 && pid < num_hardware_,
              "kill_physical targets hardware nodes only");
  Node& n = *nodes_[static_cast<std::size_t>(pid)];
  if (!n.alive()) return;
  auto pooled = std::find(spare_pool_.begin(), spare_pool_.end(), pid);
  if (pooled != spare_pool_.end()) {
    // An idle spare died in the burst: it silently leaves the pool (no
    // heartbeat observers watch a bare spare; the RAS-level injector is the
    // source of truth here).
    spare_pool_.erase(pooled);
    n.kill();
    ++spare_counters_.spare_failures;
    trace_.record(engine_.now(), TraceKind::SpareFailed, -1, -1,
                  why + " pid=" + std::to_string(pid));
    note_pool_level();
    return;
  }
  if (n.assigned() &&
      role_table_[static_cast<std::size_t>(n.replica())]
                 [static_cast<std::size_t>(n.node_index())] == pid) {
    trace_.record(engine_.now(), TraceKind::HardFailureInjected, n.replica(),
                  n.node_index(), why);
    kill_pid(pid);
    return;
  }
  // Unassigned, unpooled hardware (a vacated corpse already revived and
  // re-killed before repair): just mark it dead.
  n.kill();
}

bool Cluster::repair_node(int pid) {
  if (pid < 0 || pid >= num_hardware_) return false;  // lodgers: no hardware
  Node& n = *nodes_[static_cast<std::size_t>(pid)];
  if (n.alive()) return false;
  // If the role table still names this corpse, vacate the slot: the role
  // stays unmanned (a revived node must not silently resurrect a role the
  // manager believes dead — recovery re-mans it via promotion).
  if (n.assigned()) {
    auto& slot = role_table_.at(static_cast<std::size_t>(n.replica()))
                     .at(static_cast<std::size_t>(n.node_index()));
    if (slot == pid) slot = -1;
    n.assign(-1, -1);
  }
  ACR_REQUIRE(!is_pooled_spare(pid),
              "repair of a node already pooled (double-count)");
  n.revive();
  spare_pool_.push_back(pid);
  ++spare_counters_.repairs;
  trace_.record(engine_.now(), TraceKind::NodeRepaired, -1, -1,
                "pid=" + std::to_string(pid) + " pool=" +
                    std::to_string(spare_pool_.size()));
  return true;
}

Node* Cluster::promote_spare(int replica, int node_index) {
  if (spare_pool_.empty()) return nullptr;
  // Fresh incarnation of the role: its links must not inherit sequence
  // state or in-flight traffic addressed to the predecessor.
  transport_.reset_endpoint(role_endpoint(replica, node_index));
  purge_rx(role_endpoint(replica, node_index));
  int pid = spare_pool_.back();
  spare_pool_.pop_back();
  int old = role_table_.at(static_cast<std::size_t>(replica))
                .at(static_cast<std::size_t>(node_index));
  if (old >= 0) nodes_[static_cast<std::size_t>(old)]->assign(-1, -1);
  Node& n = *nodes_[static_cast<std::size_t>(pid)];
  n.assign(replica, node_index);
  role_table_[static_cast<std::size_t>(replica)]
             [static_cast<std::size_t>(node_index)] = pid;
  n.create_tasks();  // fresh tasks; state arrives from the buddy checkpoint
  ++spare_counters_.promotions;
  note_pool_level();
  return &n;
}

int Cluster::resolve_host(int pid) const {
  auto it = lodger_host_.find(pid);
  while (it != lodger_host_.end()) {
    pid = it->second;
    it = lodger_host_.find(pid);
  }
  return pid;
}

int Cluster::lodger_load(int pid) const {
  int load = 0;
  for (const auto& [lodger, host] : lodger_host_)
    if (host == pid && nodes_[static_cast<std::size_t>(lodger)]->alive())
      ++load;
  return load;
}

Node* Cluster::double_up(int replica, int node_index) {
  // Host choice is deterministic: the live same-replica role whose hardware
  // carries the fewest lodgers, lowest node index breaking ties — doubled
  // roles spread evenly instead of piling onto one survivor.
  int host = -1;
  int best_load = 0;
  for (int i = 0; i < config_.nodes_per_replica; ++i) {
    if (i == node_index || !role_alive(replica, i)) continue;
    int hw = resolve_host(role_table_[static_cast<std::size_t>(replica)]
                                     [static_cast<std::size_t>(i)]);
    int load = lodger_load(hw);
    if (host < 0 || load < best_load) {
      host = hw;
      best_load = load;
    }
  }
  if (host < 0) return nullptr;  // the whole replica is gone
  // Fresh incarnation of the role, same link hygiene as a spare promotion.
  transport_.reset_endpoint(role_endpoint(replica, node_index));
  purge_rx(role_endpoint(replica, node_index));
  int pid = static_cast<int>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(*this, pid));
  lodger_host_[pid] = host;
  int old = role_table_.at(static_cast<std::size_t>(replica))
                .at(static_cast<std::size_t>(node_index));
  if (old >= 0) nodes_[static_cast<std::size_t>(old)]->assign(-1, -1);
  Node& n = *nodes_[static_cast<std::size_t>(pid)];
  n.assign(replica, node_index);
  role_table_[static_cast<std::size_t>(replica)]
             [static_cast<std::size_t>(node_index)] = pid;
  n.create_tasks();
  ++spare_counters_.roles_doubled;
  trace_.record(engine_.now(), TraceKind::RoleDoubled, replica, node_index,
                "host-pid=" + std::to_string(host));
  return &n;
}

bool Cluster::retire_lodger(int replica, int node_index) {
  int pid = role_table_.at(static_cast<std::size_t>(replica))
                .at(static_cast<std::size_t>(node_index));
  if (pid < 0 || !is_lodger(pid)) return false;
  Node& n = *nodes_[static_cast<std::size_t>(pid)];
  if (n.alive()) n.kill();
  n.assign(-1, -1);
  role_table_[static_cast<std::size_t>(replica)]
             [static_cast<std::size_t>(node_index)] = -1;
  transport_.reset_endpoint(role_endpoint(replica, node_index));
  purge_rx(role_endpoint(replica, node_index));
  ++spare_counters_.roles_undoubled;
  trace_.record(engine_.now(), TraceKind::RoleUndoubled, replica, node_index,
                "host-pid=" +
                    std::to_string(lodger_host_.at(pid)));
  return true;
}

// ---------------------------------------------------------------------------
// Reliable transport glue: the cluster owns the payload store, the lossy
// wire (fault injector + engine events), and the hand-up to nodes/manager;
// the transport owns sequences, acks, timers, and the receive window.
// ---------------------------------------------------------------------------

namespace {
/// Modelled size of an ack frame on the wire (a bare header).
constexpr double kAckWireBytes = static_cast<double>(kMessageHeaderBytes);
}  // namespace

bool Cluster::endpoint_alive(int endpoint) {
  if (endpoint == kManagerEndpoint) return true;
  int replica = endpoint / config_.nodes_per_replica;
  int node = endpoint % config_.nodes_per_replica;
  return role_alive(replica, node);
}

net::ReliableTransport::Hooks Cluster::make_transport_hooks() {
  net::ReliableTransport::Hooks h;
  h.schedule = [this](double delay, std::function<void()> fn) {
    return engine_.schedule_after(delay, std::move(fn));
  };
  h.cancel = [this](net::ReliableTransport::TimerId id) { engine_.cancel(id); };
  h.transmit = [this](net::LinkKey link, net::ReliableTransport::Seq seq,
                      int attempt) {
    if (outbox_) {
      wire_store_.emplace(std::make_pair(link, seq), std::move(*outbox_));
      outbox_.reset();
    }
    transmit_frame(link, seq, attempt);
  };
  h.send_ack = [this](net::LinkKey link, net::ReliableTransport::Seq seq) {
    // Acks ride the reverse wire: small frames, subject to loss and delay
    // (duplication/corruption of a bare ack is folded into the loss rate).
    auto d = net_injector_.decide(link.dst, link.src, 0);
    if (d.drop) return;
    double lat = service_latency(link.src >= 0 && link.dst >= 0 &&
                                     link.src / config_.nodes_per_replica !=
                                         link.dst / config_.nodes_per_replica,
                                 kAckWireBytes);
    std::uint64_t gen = transport_.generation(link);
    engine_.schedule_after(
        lat + d.extra_delay,
        [this, link, seq, gen] { transport_.on_ack_frame(link, seq, gen); });
  };
  h.deliver = [this](net::LinkKey link, net::ReliableTransport::Seq seq) {
    dispatch_frame(link, seq);
  };
  h.give_up = [this](net::LinkKey link, net::ReliableTransport::Seq seq) {
    link_gave_up(link, seq);
  };
  h.release = [this](net::LinkKey link, net::ReliableTransport::Seq seq) {
    wire_store_.erase(std::make_pair(link, seq));
  };
  return h;
}

void Cluster::route_reliable(int src_endpoint, int dst_endpoint, Message m,
                             double wire_bytes) {
  net::LinkKey link{src_endpoint, dst_endpoint};
  bool inter = m.src_replica >= 0 && m.dst_replica >= 0 &&
               m.src_replica != m.dst_replica;
  WireMsg w;
  w.latency = service_latency(inter, wire_bytes);
  w.crc = checksum::buffer_crc32c(m.payload);
  w.m = std::move(m);
  outbox_ = std::move(w);
  transport_.send(link, outbox_->latency);
  ACR_REQUIRE(!outbox_, "transmit hook must consume the outbox");
}

void Cluster::transmit_frame(net::LinkKey link,
                             net::ReliableTransport::Seq seq, int attempt) {
  (void)attempt;
  auto it = wire_store_.find(std::make_pair(link, seq));
  if (it == wire_store_.end()) return;  // released while a retransmit raced
  const WireMsg& w = it->second;
  auto d = net_injector_.decide(link.src, link.dst, w.m.payload.size());
  std::uint64_t gen = transport_.generation(link);
  net::ReliableTransport::Seq base = transport_.window_base(link);
  if (!d.drop) {
    engine_.schedule_after(
        w.latency + d.extra_delay,
        [this, link, seq, base, gen, d] {
          frame_arrived(link, seq, base, gen, d.corrupt, d.corrupt_byte,
                        d.corrupt_bit);
        });
  }
  if (d.duplicate) {
    engine_.schedule_after(
        w.latency + d.dup_extra_delay,
        [this, link, seq, base, gen] {
          frame_arrived(link, seq, base, gen, false, 0, 0);
        });
  }
}

void Cluster::frame_arrived(net::LinkKey link,
                            net::ReliableTransport::Seq seq,
                            net::ReliableTransport::Seq sender_base,
                            std::uint64_t generation, bool corrupt,
                            std::size_t corrupt_byte, int corrupt_bit) {
  auto it = wire_store_.find(std::make_pair(link, seq));
  // Already released: the sender got its ack (or reset); this copy is a
  // straggler nobody is waiting for.
  if (it == wire_store_.end()) return;
  const WireMsg& w = it->second;
  // Integrity check against the send-time CRC32C. The conditioned CRC is
  // affine in the message bits, so the damaged frame's CRC is the clean CRC
  // xor the flipped bit's contribution — no payload copy, no rescan (the
  // old path detached a full copy-on-write duplicate and re-digested it
  // per corrupted frame). The delta of a single-bit flip is never zero
  // (CRC32C detects all 1-bit errors), so this reaches the same verdict.
  if (corrupt) {
    if (w.m.payload.empty()) {
      // Nothing but header to corrupt: the frame fails framing outright.
      ++net_counters_.crc_drops;
      return;
    }
    std::uint32_t damaged_crc =
        w.crc ^ checksum::crc32c_flip_delta(w.m.payload.size(), corrupt_byte,
                                            corrupt_bit);
    if (damaged_crc != w.crc) {
      ++net_counters_.crc_drops;
      return;  // dropped at the NIC: no ack, retransmit covers it
    }
  }
  // A dead or vacated destination has no NIC to ack from.
  if (!endpoint_alive(link.dst)) {
    ++net_counters_.dead_endpoint_drops;
    return;
  }
  // Stash the payload receiver-side before the transport decides its fate:
  // the sender may release its copy (on ack) while this frame is still
  // buffered behind a hole. Only current-generation frames are stashed.
  if (generation == transport_.generation(link))
    rx_store_.insert_or_assign(std::make_pair(link, seq), w.m);
  transport_.on_data_frame(link, seq, sender_base, generation);
}

void Cluster::dispatch_frame(net::LinkKey link,
                             net::ReliableTransport::Seq seq) {
  auto it = rx_store_.find(std::make_pair(link, seq));
  ACR_REQUIRE(it != rx_store_.end(), "delivered frame has no stored payload");
  Message m = std::move(it->second);
  rx_store_.erase(it);
  if (link.dst == kManagerEndpoint) {
    manager_hook_(m);
    return;
  }
  int pid = role_table_[static_cast<std::size_t>(m.dst_replica)]
                       [static_cast<std::size_t>(m.dst.node_index)];
  if (pid < 0) return;
  nodes_[static_cast<std::size_t>(pid)]->deliver(m);
}

void Cluster::purge_rx(int endpoint) {
  for (auto it = rx_store_.begin(); it != rx_store_.end();) {
    if (it->first.first.src == endpoint || it->first.first.dst == endpoint)
      it = rx_store_.erase(it);
    else
      ++it;
  }
}

void Cluster::link_gave_up(net::LinkKey link,
                           net::ReliableTransport::Seq seq) {
  (void)seq;
  ++net_counters_.link_failures;
  auto decode = [this](int ep, int& replica, int& node) {
    if (ep == kManagerEndpoint) {
      replica = -1;
      node = -1;
    } else {
      replica = ep / config_.nodes_per_replica;
      node = ep % config_.nodes_per_replica;
    }
  };
  int sr, sn, dr, dn;
  decode(link.src, sr, sn);
  decode(link.dst, dr, dn);
  trace_.record(engine_.now(), TraceKind::LinkFailure, dr, dn);
  // If either end is dead, the retry exhaustion is just a symptom of the
  // node failure, which heartbeats/RAS detect and recover on their own.
  // Between two live endpoints it is a genuine link failure: report it
  // out-of-band (the RAS channel) so the manager can degrade gracefully.
  if (!endpoint_alive(link.src) || !endpoint_alive(link.dst)) return;
  if (link_failure_hook_) link_failure_hook_(sr, sn, dr, dn);
}

Pcg32 Cluster::make_rng(std::uint64_t salt) const {
  return Pcg32(config_.seed ^ salt, salt | 1);
}

}  // namespace acr::rt
