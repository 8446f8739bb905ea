// Shared harness for the fault-soak binaries (xor/burst/tier/delta/rs).
//
// Every soak pins the same contract — seeded fault schedules complete with
// the bitwise fault-free answer — against a different subsystem. The
// boilerplate they share (the jacobi soak workload, the verified-answer
// digest, the fault-free reference run, the run-then-digest epilogue, the
// rack-style burst plan, and the trace scans) lives here; each soak keeps
// only its own configuration and assertions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "checksum/fletcher.h"
#include "failure/correlated.h"

namespace acr::soak {

/// The standard soak workload: 16 jacobi tasks, 2 per node -> 8 nodes per
/// replica (two parity groups of 4 under xor/rs), ~40 checkpoints of work.
inline apps::Jacobi3DConfig small_app() {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = 2;
  cfg.tasks_z = 4;
  cfg.block_x = cfg.block_y = cfg.block_z = 4;
  cfg.iterations = 40;
  cfg.slots_per_node = 2;  // 8 nodes per replica
  cfg.seconds_per_point = 1e-5;
  return cfg;
}

/// Multi-chunk variant (delta soak): each node's image spans several
/// 256 KiB digest chunks, so chunk maps, overlays, and the parity delta
/// algebra are actually exercised instead of degenerating to full frames.
inline apps::Jacobi3DConfig multi_chunk_app() {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = 2;
  cfg.tasks_z = 4;
  cfg.block_x = cfg.block_y = 24;
  cfg.block_z = 24;  // ~110 KB per task, 4 tasks/node => image > 2 chunks
  cfg.iterations = 30;
  cfg.slots_per_node = 4;  // 4 nodes per replica
  cfg.seconds_per_point = 2e-7;
  return cfg;
}

/// The protocol baseline every soak starts from: strong scheme, tight
/// interval and heartbeats so kills are detected well within a run.
inline AcrConfig base_acr_config() {
  AcrConfig ac;
  ac.scheme = ResilienceScheme::Strong;
  ac.checkpoint_interval = 0.003;
  ac.heartbeat_period = 0.0004;
  ac.heartbeat_timeout = 0.0016;
  return ac;
}

/// Fletcher-64 over the newest verified image of every node index (taken
/// from whichever replica holds the higher epoch): the "answer" compared
/// bit-for-bit across runs. Live state is not the answer: a node killed
/// between the final pack and its commit keeps a stale copy while its buddy
/// holds the verified one, and a flip may land after the final pack.
inline std::uint64_t verified_digest(AcrRuntime& runtime) {
  checksum::Fletcher64 f;
  for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i) {
    NodeAgent& a = runtime.agent_at(0, i);
    NodeAgent& b = runtime.agent_at(1, i);
    const NodeAgent& best = a.verified_epoch() >= b.verified_epoch() ? a : b;
    f.append(best.verified_image());
  }
  return f.digest();
}

struct Reference {
  std::uint64_t digest = 0;
  double finish_time = 0.0;
  std::size_t image_bytes = 0;
};

/// A cluster sized for `app`, with `spares` pooled spares.
inline rt::ClusterConfig cluster_for(
    const apps::Jacobi3DConfig& app, int spares,
    std::uint64_t seed = rt::ClusterConfig{}.seed) {
  rt::ClusterConfig cc;
  cc.nodes_per_replica = app.nodes_needed();
  cc.spare_nodes = spares;
  cc.seed = seed;
  return cc;
}

/// Fault-free run under `ac`: fixes the expected answer and the nominal
/// completion time fault schedules are drawn from. Configs differ per
/// soak, so the static caching stays at each call site.
inline Reference make_reference(const apps::Jacobi3DConfig& app,
                                const AcrConfig& ac, const char* what) {
  AcrRuntime runtime(ac, cluster_for(app, 0));
  runtime.set_task_factory(app.factory());
  runtime.setup();
  RunSummary s = runtime.run(1e3);
  ACR_REQUIRE(s.complete, what);
  Reference ref;
  ref.digest = verified_digest(runtime);
  ref.finish_time = s.finish_time;
  ref.image_bytes = runtime.agent_at(0, 0).verified_image().size();
  return ref;
}

/// The rack-style burst plan shared by the burst/tier/delta soaks: a few
/// seeds per nominal run, half the blade following each, repairs returning
/// hardware well within the run.
inline failure::BurstConfig default_burst_config(double nominal_finish) {
  failure::BurstConfig bc;
  bc.seed_mtbf = nominal_finish / 3.0;
  bc.weibull_shape = 0.7;
  bc.follow_prob = 0.5;
  bc.window = 0.001;
  bc.domain_size = 4;
  bc.repair_mean = nominal_finish / 5.0;
  return bc;
}

/// A small_app() job under `ac`, set up and ready to run.
struct Sim {
  apps::Jacobi3DConfig app = small_app();
  AcrRuntime runtime;
  Sim(const AcrConfig& ac, int spares,
      std::uint64_t seed = rt::ClusterConfig{}.seed)
      : runtime(ac, cluster_for(app, spares, seed)) {
    runtime.set_task_factory(app.factory());
    runtime.setup();
  }
};

/// True when the trace holds a `kind` event whose detail contains
/// `detail_substr` (any detail when empty).
inline bool trace_contains(AcrRuntime& runtime, rt::TraceKind kind,
                           const std::string& detail_substr = "") {
  for (const auto& e : runtime.trace().events())
    if (e.kind == kind && e.detail.find(detail_substr) != std::string::npos)
      return true;
  return false;
}

struct Outcome {
  RunSummary summary;
  std::uint64_t digest = 0;
};

/// Run to completion (or the cap), drain the post-completion events, and
/// digest the verified answer.
inline Outcome run_and_digest(AcrRuntime& runtime,
                              double max_virtual_time = 30.0) {
  Outcome out;
  out.summary = runtime.run(max_virtual_time);
  if (out.summary.complete) {
    runtime.engine().run_until(out.summary.finish_time + 0.05);
    out.digest = verified_digest(runtime);
  }
  return out;
}

/// True when a burst wiped every host of a replica (pool empty, nobody to
/// double onto) — the one failure no checkpoint level can mask.
inline bool hardware_annihilated(AcrRuntime& runtime) {
  for (const auto& e : runtime.trace().events())
    if (e.detail.find("no surviving host") != std::string::npos) return true;
  return false;
}

/// True when a "restart from scratch" rollback fired at or after the first
/// epoch became fully durable on L2 (tier soaks assert this never happens:
/// the ladder must serve a fetch instead).
inline bool scratch_after_first_durable(AcrRuntime& runtime) {
  double first_durable = -1.0;
  for (const auto& e : runtime.trace().events()) {
    if (e.kind == rt::TraceKind::EpochDurable) {
      first_durable = e.time;
      break;
    }
  }
  if (first_durable < 0.0) return false;
  for (const auto& e : runtime.trace().events()) {
    if (e.kind == rt::TraceKind::Rollback && e.time >= first_durable &&
        e.detail.find("restart from scratch") != std::string::npos)
      return true;
  }
  return false;
}

}  // namespace acr::soak
