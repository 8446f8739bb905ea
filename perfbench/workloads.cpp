#include "workloads.h"

#include <cstring>
#include <stdexcept>

#include "common/rng.h"
#include "tracing.h"

namespace perfbench {

using namespace acr;

namespace {

// Fault-free virtual finish times and verified-answer digests of the Full
// workloads. They do not depend on the seed: the final cross-replica
// verification captures the finished state. `acr_perfbench calibrate`
// prints them; a change that moves one changes the simulated answer.
constexpr double kHaloFinish = 0.00632;
constexpr std::uint64_t kHaloDigest = 0x42e957d39530ecf4;
constexpr double kCkptFinish = 0.2448;
constexpr std::uint64_t kCkptDigest = 0x8981f19cd7d906a6;
constexpr double kRecoverFinish = 0.0220;
constexpr std::uint64_t kRecoverDigest = 0x47976613f2c2f651;
constexpr double kLossyFinish = 0.01507;
constexpr std::uint64_t kLossyDigest = 0x1d892b26f705bc86;

/// acr_driver's jacobi scenario: 2x2xN tasks of 4^3 points, 4 per node.
apps::Jacobi3DConfig driver_jacobi(int nodes, std::uint64_t iterations) {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = 2;
  cfg.tasks_z = nodes;
  cfg.block_x = cfg.block_y = cfg.block_z = 4;
  cfg.slots_per_node = 4;
  cfg.iterations = iterations;
  cfg.seconds_per_point = 1e-5;
  return cfg;
}

/// acr_driver's protocol defaults: strong scheme, full compare, 4 ms
/// interval, 0.5 ms heartbeats.
AcrConfig driver_acr() {
  AcrConfig ac;
  ac.scheme = ResilienceScheme::Strong;
  ac.detection = SdcDetection::FullCompare;
  ac.checkpoint_interval = 0.004;
  ac.heartbeat_period = 0.0005;
  ac.heartbeat_timeout = 0.002;
  return ac;
}

rt::ClusterConfig cluster_for(const apps::Jacobi3DConfig& app, int spares) {
  rt::ClusterConfig cc;
  cc.nodes_per_replica = app.nodes_needed();
  cc.spare_nodes = spares;
  // Pinned so ACR_ENGINE_LANES on the host cannot change the program.
  cc.engine_lanes = 1;
  return cc;
}

Workload halo(Scale scale) {
  Workload w;
  w.name = "halo-1k";
  bool full = scale == Scale::Full;
  w.app = driver_jacobi(full ? 1024 : 8, full ? 8 : 6);
  w.acr = driver_acr();
  w.cluster = cluster_for(w.app, 4);
  if (full) {
    w.nominal_finish = kHaloFinish;
    w.digest = kHaloDigest;
  }
  return w;
}

Workload ckpt_rs_lz(Scale scale) {
  Workload w;
  w.name = "ckpt-rs-lz";
  bool full = scale == Scale::Full;
  apps::Jacobi3DConfig& app = w.app;
  app.tasks_x = app.tasks_y = app.tasks_z = 2;  // one task per node
  app.block_x = app.block_y = app.block_z = full ? 64 : 16;
  app.slots_per_node = 1;
  app.iterations = full ? 8 : 6;
  app.seconds_per_point = full ? 1e-8 : 1.6e-7;
  app.init_fill_fraction = 0.25;
  w.acr = driver_acr();
  w.acr.redundancy = ckpt::Scheme::Rs;
  w.acr.xor_group_size = 4;
  w.acr.rs_parity = 2;
  w.acr.codec.delta = ckpt::DeltaMode::On;
  w.acr.codec.compress = ckpt::CompressMode::Lz;
  w.acr.tier.bandwidth = 1e9;
  w.acr.tier.flush_interval = 1;
  w.cluster = cluster_for(w.app, 4);
  if (full) {
    w.nominal_finish = kCkptFinish;
    w.digest = kCkptDigest;
  }
  return w;
}

Workload recover(Scale scale) {
  Workload w;
  w.name = "recover-256";
  bool full = scale == Scale::Full;
  w.app = driver_jacobi(full ? 256 : 8, 30);
  w.acr = driver_acr();
  w.acr.redundancy = ckpt::Scheme::Rs;
  w.acr.xor_group_size = full ? 8 : 4;
  w.acr.rs_parity = 2;
  w.acr.tier.bandwidth = 1e9;
  w.acr.tier.flush_interval = 1;
  w.acr.degrade = DegradeMode::Shrink;
  w.cluster = cluster_for(w.app, full ? 16 : 8);
  w.faults = true;
  if (full) {
    w.nominal_finish = kRecoverFinish;
    w.digest = kRecoverDigest;
  }
  return w;
}

Workload lossy(Scale scale) {
  Workload w;
  w.name = "lossy-256";
  bool full = scale == Scale::Full;
  w.app = driver_jacobi(full ? 256 : 8, full ? 20 : 10);
  w.acr = driver_acr();
  w.cluster = cluster_for(w.app, 4);
  w.cluster.net_faults.drop_rate = 0.01;
  w.cluster.net_faults.dup_rate = 0.005;
  w.cluster.net_faults.reorder_rate = 0.01;
  w.cluster.net_faults.corrupt_rate = 0.002;
  if (full) {
    w.nominal_finish = kLossyFinish;
    w.digest = kLossyDigest;
  }
  return w;
}

/// Flip the top mantissa bit of one interior point of the first task on
/// (replica, index): state that is checkpointed and propagates, so the
/// next cross-replica comparison must catch it.
void plant_sdc(AcrRuntime& runtime, int replica, int index) {
  rt::Cluster& cluster = runtime.cluster();
  if (!cluster.role_alive(replica, index)) return;
  rt::Node& node = cluster.node_at(replica, index);
  if (node.num_tasks() == 0) return;
  auto& task = static_cast<apps::Jacobi3DTask&>(unwrap(node.task(0)));
  if (task.progress() == 0) return;  // not initialised (or not restored) yet
  double& v = task.value_at(1, 1, 1);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  bits ^= std::uint64_t{1} << 51;
  std::memcpy(&v, &bits, sizeof bits);
  cluster.trace().record(runtime.engine().now(), rt::TraceKind::SdcInjected,
                         replica, index, "perfbench");
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"halo-1k", "ckpt-rs-lz",
                                                 "recover-256", "lossy-256"};
  return names;
}

Workload make_workload(const std::string& name, Scale scale) {
  if (name == "halo-1k") return halo(scale);
  if (name == "ckpt-rs-lz") return ckpt_rs_lz(scale);
  if (name == "recover-256") return recover(scale);
  if (name == "lossy-256") return lossy(scale);
  throw std::invalid_argument("unknown workload: " + name);
}

Workload fault_free(Workload w) {
  w.faults = false;
  w.cluster.net_faults = failure::NetFaultConfig{};
  return w;
}

void schedule_faults(AcrRuntime& runtime, const Workload& w,
                     std::uint64_t seed) {
  Pcg32 rng(seed ^ 0x9E3779B97F4A7C15ULL, 0xFA175);
  const int n = w.nodes_per_replica();
  const int group = w.acr.xor_group_size;
  const double f = w.nominal_finish;
  auto pick = [&rng](int bound) {
    return static_cast<int>(rng.bounded(static_cast<std::uint32_t>(bound)));
  };
  AcrRuntime* rt = &runtime;
  auto live = [rt]() {
    return !rt->manager().job_complete() && !rt->manager().job_failed();
  };

  // 1. One hard failure: rebuilt in place from its rs group.
  int kill_replica = pick(2);
  int kill_index = pick(n);
  runtime.engine().schedule_at(0.30 * f, [=]() {
    if (!live() || !rt->cluster().role_alive(kill_replica, kill_index)) return;
    rt->trace().record(rt->engine().now(), rt::TraceKind::HardFailureInjected,
                       kill_replica, kill_index);
    rt->cluster().kill_role(kill_replica, kill_index);
  });

  // 2. One silent flip: detected at the next comparison, both replicas
  // roll back to the last verified epoch.
  int sdc_replica = pick(2);
  int sdc_index = pick(n);
  runtime.engine().schedule_at(0.50 * f, [=]() {
    if (live()) plant_sdc(*rt, sdc_replica, sdc_index);
  });

  // 3. A correlated burst: three members of one parity group die within
  // 0.2 ms, more than rs(2) can rebuild, so the job restores from L2. The
  // dead hardware is repaired back into the spare pool later.
  int burst_replica = pick(2);
  int first = pick(n / group) * group;
  std::vector<int> members;
  while (members.size() < 3) {
    int m = first + pick(group);
    bool fresh = true;
    for (int x : members) fresh = fresh && x != m;
    if (fresh) members.push_back(m);
  }
  for (std::size_t k = 0; k < members.size(); ++k) {
    int index = members[k];
    runtime.engine().schedule_at(0.85 * f + 1e-4 * static_cast<double>(k), [=]() {
      if (!live() || !rt->cluster().role_alive(burst_replica, index)) return;
      int pid = rt->cluster().node_at(burst_replica, index).physical_id();
      rt->cluster().kill_physical(pid, "perfbench-burst");
      rt->engine().schedule_after(0.5 * f, [=]() {
        if (live() && rt->cluster().repair_node(pid))
          rt->manager().note_spare_available();
      });
    });
  }
}

}  // namespace perfbench
