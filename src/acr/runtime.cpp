#include "acr/runtime.h"

#include <algorithm>

#include "common/logging.h"
#include "failure/injector.h"

namespace acr {

AcrRuntime::AcrRuntime(const AcrConfig& acr_config,
                       const rt::ClusterConfig& cluster_config)
    : acr_config_(acr_config),
      cluster_(std::make_unique<rt::Cluster>(engine_, cluster_config)),
      fault_rng_(cluster_config.seed ^ 0xFA17ULL, 0xD15EA5E) {
  if (acr_config_.tier.enabled())
    tier_ = std::make_unique<ckpt::DurableTier>(
        acr_config_.tier, 2, cluster_config.nodes_per_replica);
}

AcrRuntime::~AcrRuntime() = default;

void AcrRuntime::set_task_factory(rt::Cluster::TaskFactory factory) {
  cluster_->set_task_factory(std::move(factory));
}

void AcrRuntime::set_predictor(const PredictorConfig& config) {
  ACR_REQUIRE(!fault_scheduled_,
              "set_predictor must precede set_fault_plan: warnings are "
              "decided when faults are scheduled");
  predictor_ = config;
  predictor_enabled_ = true;
}

void AcrRuntime::set_fault_plan(FaultPlan plan) {
  fault_plan_ = std::move(plan);
  if (setup_done_ && fault_plan_.arrivals)
    schedule_next_fault(engine_.now());
}

void AcrRuntime::set_burst_plan(const failure::BurstConfig& config) {
  burst_config_ = config;
  if (setup_done_ && burst_config_.enabled()) arm_burst_injection();
}

void AcrRuntime::arm_burst_injection() {
  if (burst_ != nullptr || !burst_config_.enabled()) return;
  burst_ = std::make_unique<failure::CorrelatedInjector>(
      burst_config_, cluster_->num_hardware_nodes(),
      cluster_->config().seed ^ 0xB0057ULL);
  // Lifecycle events (spare deaths, repairs, pool minima) only exist under
  // burst injection; enabling their trace here keeps burst-free runs
  // byte-identical to the pre-lifecycle framework.
  cluster_->trace_pool_minima();
  schedule_next_burst(engine_.now());
}

NodeAgent* AcrRuntime::install_agent(rt::Node& node) {
  // Agents are never replaced while their node lives — scheduled events
  // capture the agent pointer. Relaunches reset the existing agent.
  if (node.service() != nullptr) {
    auto* agent = static_cast<NodeAgent*>(node.service());
    // A repaired node may be promoted into a different role than the one
    // it died holding; the reused agent re-derives its tree position and
    // redundancy layout before the state reset.
    agent->rebind_role();
    agent->reset_for_restart();
    return agent;
  }
  AcrEnv env{cluster_.get(), &acr_config_, tier_.get(), &codec_memo_};
  auto agent = std::make_unique<NodeAgent>(env, node);
  NodeAgent* raw = agent.get();
  node.set_service(std::move(agent));
  raw->start();
  return raw;
}

void AcrRuntime::setup() {
  ACR_REQUIRE(!setup_done_, "setup() must be called once");
  cluster_->populate();
  for (int r = 0; r < 2; ++r)
    for (int i = 0; i < cluster_->nodes_per_replica(); ++i)
      install_agent(cluster_->node_at(r, i));
  manager_ = std::make_unique<Manager>(
      AcrEnv{cluster_.get(), &acr_config_, tier_.get(), &codec_memo_},
      [this](rt::Node& n) { return install_agent(n); });
  manager_->start();
  if (acr_config_.tier.enabled() && acr_config_.halt_after > 0.0)
    engine_.schedule_at(acr_config_.halt_after,
                        [this]() { manager_->request_drain(); });
  cluster_->start_application();
  if (fault_plan_.arrivals) schedule_next_fault(0.0);
  if (burst_config_.enabled()) arm_burst_injection();
  setup_done_ = true;
}

void AcrRuntime::schedule_next_fault(double from_time) {
  fault_scheduled_ = true;
  double t = fault_plan_.arrivals->next_after(from_time, fault_rng_);
  if (fault_plan_.horizon > 0.0 && t > fault_plan_.horizon) return;
  // The fault's nature is decided at scheduling time so the failure
  // predictor can announce (only) hard failures ahead of their arrival.
  next_fault_is_sdc_ = fault_rng_.uniform() < fault_plan_.sdc_fraction;
  if (predictor_enabled_ && !next_fault_is_sdc_) {
    if (fault_rng_.uniform() < predictor_.recall) {
      double warn_at = std::max(engine_.now(), t - predictor_.lead_time);
      engine_.schedule_at(warn_at, [this]() {
        ++warnings_issued_;
        manager_->request_immediate_checkpoint();
      });
      // False alarms: (1-precision)/precision extra warnings per true one
      // (Bernoulli approximation; exact for precision >= 0.5).
      double false_ratio = (1.0 - predictor_.precision) / predictor_.precision;
      if (fault_rng_.uniform() < std::min(1.0, false_ratio)) {
        double bogus_at = engine_.now() + (t - engine_.now()) *
                                              fault_rng_.uniform();
        engine_.schedule_at(bogus_at, [this]() {
          ++warnings_issued_;
          manager_->request_immediate_checkpoint();
        });
      }
    }
  }
  engine_.schedule_at(t, [this]() { fire_fault(); });
}

void AcrRuntime::fire_fault() {
  if (job_over()) return;
  // This firing's nature was fixed when it was scheduled; scheduling the
  // next fault overwrites next_fault_is_sdc_ with the *next* one's.
  bool sdc = next_fault_is_sdc_;
  schedule_next_fault(engine_.now());

  int replica = static_cast<int>(fault_rng_.bounded(2));
  int index = static_cast<int>(
      fault_rng_.bounded(static_cast<std::uint32_t>(
          cluster_->nodes_per_replica())));
  if (!sdc) {
    apply(failure::Fault::kill_role(engine_.now(), replica, index));
    return;
  }
  // The slot draw reads the victim's live task count, so a dead victim
  // ends the firing before it.
  if (!cluster_->role_alive(replica, index)) return;
  int tasks = cluster_->node_at(replica, index).num_tasks();
  if (tasks == 0) return;
  int slot = static_cast<int>(
      fault_rng_.bounded(static_cast<std::uint32_t>(tasks)));
  apply(failure::Fault::flip(engine_.now(), replica, index, slot, fault_rng_));
}

void AcrRuntime::schedule_next_burst(double from_time) {
  double t = burst_->next_seed_after(from_time);
  engine_.schedule_at(t, [this]() { fire_burst(); });
}

void AcrRuntime::fire_burst() {
  if (job_over()) return;
  schedule_next_burst(engine_.now());
  std::vector<int> alive = cluster_->alive_hardware();
  if (alive.empty()) return;
  ++burst_seeds_;
  int victim = burst_->pick_victim(alive);
  // Plan followers against the pre-seed membership: the seed's own death
  // must not affect who its domain peers are.
  std::vector<failure::FollowerEvent> followers =
      burst_->plan_followers(victim, alive);
  // A kill that lands draws its repair time then, so the repair stream
  // advances in kill order.
  auto strike = [this](int pid, const char* why) {
    double now = engine_.now();
    if (apply(failure::Fault::kill_hardware(now, pid, why)) &&
        burst_config_.repair_mean > 0.0)
      inject(failure::Fault::repair(now + burst_->sample_repair_time(), pid));
  };
  strike(victim, "burst-seed");
  for (const failure::FollowerEvent& f : followers)
    engine_.schedule_after(f.delay, [strike, node = f.node]() {
      strike(node, "burst-follower");
    });
}

bool AcrRuntime::apply(const failure::Fault& f) {
  using Kind = failure::Fault::Kind;
  if (job_over()) return false;
  const failure::Fault::Target& t = f.target;
  switch (f.kind) {
    case Kind::KillRole:
      if (!cluster_->role_alive(t.replica, t.index)) return false;
      cluster_->trace().record(engine_.now(),
                               rt::TraceKind::HardFailureInjected, t.replica,
                               t.index, f.why);
      cluster_->kill_role(t.replica, t.index);
      return true;
    case Kind::KillHardware: {
      if (!cluster_->physical_node(t.pid).alive()) return false;
      bool was_spare = cluster_->is_pooled_spare(t.pid);
      ++burst_kills_;
      // The cluster writes the trace line, with f.why as its detail:
      // SpareFailed for a pooled spare, HardFailureInjected for a role
      // player.
      cluster_->kill_physical(t.pid, f.why);
      // Nothing heartbeats a pooled spare, so its death is reported to the
      // manager out of band (the RAS log) — the adaptive interval must see
      // correlated arrivals whether or not the victim held a role.
      if (was_spare) manager_->note_out_of_band_failure();
      return true;
    }
    case Kind::Flip: {
      if (!cluster_->role_alive(t.replica, t.index)) return false;
      rt::Node& node = cluster_->node_at(t.replica, t.index);
      if (t.slot >= node.num_tasks()) return false;
      ACR_REQUIRE(f.draws != nullptr, "a flip needs a draw stream");
      std::optional<failure::BitFlip> flip =
          failure::try_inject_sdc(node.task(t.slot), *f.draws);
      if (!flip) return false;  // no eligible state (e.g. a bare spare)
      ++sdc_injected_;
      cluster_->trace().record(engine_.now(), rt::TraceKind::SdcInjected,
                               t.replica, t.index,
                               "slot=" + std::to_string(t.slot) + " byte=" +
                                   std::to_string(flip->byte_offset) +
                                   " bit=" + std::to_string(flip->bit));
      return true;
    }
    case Kind::Repair:
      if (!cluster_->repair_node(t.pid)) return false;
      manager_->note_spare_available();
      return true;
  }
  return false;
}

void AcrRuntime::inject(failure::Fault f) {
  engine_.schedule_at(f.time, [this, f = std::move(f)]() { apply(f); });
}

RunSummary AcrRuntime::run(double max_virtual_time) {
  ACR_REQUIRE(setup_done_, "call setup() before run()");
  while (engine_.now() < max_virtual_time && !manager_->job_complete() &&
         !manager_->job_failed() && !manager_->job_drained()) {
    if (!engine_.step()) break;
  }
  RunSummary s;
  s.complete = manager_->job_complete();
  s.failed = manager_->job_failed();
  s.finish_time = engine_.now();
  s.checkpoints = manager_->checkpoints_committed();
  s.hard_failures = manager_->hard_failures_detected();
  s.sdc_injected = sdc_injected_;
  s.sdc_detected = manager_->sdc_rollbacks();
  s.recoveries = manager_->recoveries_completed();
  s.scratch_restarts = manager_->scratch_restarts();
  const failure::NetFaultCounters& nf = cluster_->net_fault_counters();
  const net::LinkStats& ls = cluster_->transport().stats();
  const rt::Cluster::NetCounters& nc = cluster_->net_counters();
  s.net_frames = nf.frames;
  s.net_drops = nf.drops;
  s.net_duplicates = nf.duplicates;
  s.net_corruptions = nf.corruptions;
  s.net_retransmits = ls.retransmits;
  s.net_crc_drops = nc.crc_drops;
  s.net_stale_epoch_drops = nc.stale_epoch_drops;
  s.net_link_failures = ls.gave_up;
  s.ckpt_scheme = ckpt::scheme_name(acr_config_.redundancy);
  const rt::Cluster::SpareCounters& sc = cluster_->spare_counters();
  s.burst_seeds = burst_seeds_;
  s.burst_node_kills = burst_kills_;
  s.spare_promotions = sc.promotions;
  s.spare_failures = sc.spare_failures;
  s.spare_repairs = sc.repairs;
  s.spare_low_water = sc.low_water;
  s.roles_doubled = sc.roles_doubled;
  s.roles_undoubled = sc.roles_undoubled;
  s.drained = manager_->job_drained();
  if (tier_) {
    s.l2_flushes = tier_->publishes();
    s.l2_flush_bytes = tier_->bytes_published();
    s.l2_fetches = tier_->fetches();
    s.l2_fetch_waves = manager_->l2_fetch_waves();
    s.l2_scavenges = manager_->l2_scavenges();
    s.l2_newest_durable = manager_->l2_newest_durable();
  }
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < cluster_->nodes_per_replica(); ++i) {
      // role_node, not node_at: on a failed run the repair path may have
      // left a role unmanned (its dead player was pooled again).
      rt::Node* n = cluster_->role_node(r, i);
      if (n == nullptr) continue;
      auto* agent = static_cast<NodeAgent*>(n->service());
      if (agent == nullptr) continue;
      if (const ckpt::RsScheme* rs = agent->rs()) {
        const ckpt::RsScheme::Stats& ps = rs->stats();
        s.parity_chunks_sent += ps.parity_chunks_sent;
        s.parity_bytes_sent += ps.parity_bytes_sent;
        s.xor_rebuilds += ps.rebuilds_completed;
        s.parity_rebuild_pieces += ps.rebuild_pieces_sent;
        s.parity_rebuild_bytes += ps.rebuild_bytes_sent;
        s.parity_rebuilds_rejected += ps.rebuilds_rejected;
        s.parity_delta_chunks += ps.parity_delta_chunks_sent;
        s.parity_delta_bytes += ps.parity_delta_bytes_sent;
        s.parity_rounds_poisoned += ps.parity_rounds_poisoned;
      }
      const NodeAgent::CodecStats& cs = agent->codec_stats();
      s.codec_frames += cs.frames;
      s.codec_full_frames += cs.full_frames;
      s.codec_chunks_total += cs.chunks_total;
      s.codec_chunks_shipped += cs.chunks_shipped;
      s.codec_raw_bytes += cs.raw_bytes;
      s.codec_wire_bytes += cs.wire_bytes;
      s.codec_need_full += cs.need_full;
    }
  }
  if (tier_) s.l2_delta_blobs = tier_->delta_publishes();
  return s;
}

NodeAgent& AcrRuntime::agent_at(int replica, int node_index) {
  auto* svc = cluster_->node_at(replica, node_index).service();
  ACR_REQUIRE(svc != nullptr, "no agent installed");
  return *static_cast<NodeAgent*>(svc);
}

}  // namespace acr
