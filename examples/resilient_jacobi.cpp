// Resilient Jacobi3D: the paper's flagship workload under fire.
//
// Runs the same Jacobi3D job three times:
//   1. failure-free, to obtain the reference answer;
//   2. with a silent-data-corruption bit flip planted in replica 0;
//   3. with a fail-stop node crash in replica 1.
// and shows that ACR detects the corruption, survives the crash, and both
// runs end bit-identical to the reference.
//
// Build & run:  ./build/examples/resilient_jacobi
#include <cstdio>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "checksum/fletcher.h"

using namespace acr;

namespace {

apps::Jacobi3DConfig jacobi_config() {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = cfg.tasks_z = 2;
  cfg.block_x = cfg.block_y = cfg.block_z = 6;
  cfg.iterations = 60;
  cfg.slots_per_node = 2;
  cfg.seconds_per_point = 5e-6;
  return cfg;
}

AcrRuntime make_runtime(const apps::Jacobi3DConfig& j) {
  AcrConfig acr_cfg;
  acr_cfg.scheme = ResilienceScheme::Strong;
  acr_cfg.checkpoint_interval = 0.005;
  acr_cfg.heartbeat_period = 0.0005;
  acr_cfg.heartbeat_timeout = 0.002;
  rt::ClusterConfig cluster_cfg;
  cluster_cfg.nodes_per_replica = j.nodes_needed();
  cluster_cfg.spare_nodes = 2;
  return AcrRuntime(acr_cfg, cluster_cfg);
}

std::uint64_t final_digest(AcrRuntime& runtime, double finish_time) {
  runtime.engine().run_until(finish_time + 0.1);
  checksum::Fletcher64 f;
  for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i)
    f.append(runtime.cluster().node_at(0, i).pack_state().bytes());
  return f.digest();
}

}  // namespace

int main() {
  apps::Jacobi3DConfig j = jacobi_config();

  std::printf("=== run 1: failure-free reference ===\n");
  AcrRuntime clean = make_runtime(j);
  clean.set_task_factory(j.factory());
  clean.setup();
  RunSummary cs = clean.run(100.0);
  std::uint64_t reference = final_digest(clean, cs.finish_time);
  std::printf("complete=%d  checkpoints=%llu  digest=%016llx\n\n",
              cs.complete, static_cast<unsigned long long>(cs.checkpoints),
              static_cast<unsigned long long>(reference));

  std::printf("=== run 2: silent data corruption in replica 0 ===\n");
  AcrRuntime sdc = make_runtime(j);
  sdc.set_task_factory(j.factory());
  sdc.setup();
  sdc.engine().schedule_at(0.007, [&sdc] {
    auto& task =
        static_cast<apps::Jacobi3DTask&>(sdc.cluster().node_at(0, 2).task(1));
    task.value_at(3, 3, 3) *= -1.0;  // the flip nobody notices... except ACR
    std::printf("  [0.007] flipped an interior value on node (0,2)\n");
  });
  RunSummary ss = sdc.run(100.0);
  std::uint64_t sdc_digest = final_digest(sdc, ss.finish_time);
  std::printf("complete=%d  SDC detected=%llu  rollbacks taken, final "
              "digest=%016llx  -> %s\n\n",
              ss.complete, static_cast<unsigned long long>(ss.sdc_detected),
              static_cast<unsigned long long>(sdc_digest),
              sdc_digest == reference ? "MATCHES reference"
                                      : "DIVERGED (bug!)");

  std::printf("=== run 3: fail-stop crash in replica 1 ===\n");
  AcrRuntime hard = make_runtime(j);
  hard.set_task_factory(j.factory());
  hard.setup();
  std::printf("  [0.011] node (1,3) stops responding\n");
  hard.inject(failure::Fault::kill_role(0.011, 1, 3));
  RunSummary hs = hard.run(100.0);
  std::uint64_t hard_digest = final_digest(hard, hs.finish_time);
  std::printf("complete=%d  failures detected=%llu  recoveries=%llu  final "
              "digest=%016llx  -> %s\n",
              hs.complete, static_cast<unsigned long long>(hs.hard_failures),
              static_cast<unsigned long long>(hs.recoveries),
              static_cast<unsigned long long>(hard_digest),
              hard_digest == reference ? "MATCHES reference"
                                       : "DIVERGED (bug!)");

  bool ok = cs.complete && ss.complete && hs.complete &&
            ss.sdc_detected >= 1 && hs.recoveries == 1 &&
            sdc_digest == reference && hard_digest == reference;
  std::printf("\nresilient_jacobi: %s\n", ok ? "ALL CHECKS PASSED" : "FAILED");
  return ok ? 0 : 1;
}
