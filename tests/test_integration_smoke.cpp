// End-to-end smoke tests: the full ACR stack (consensus checkpointing, SDC
// detection, hard-error recovery) over the virtual cluster with the real
// Jacobi3D mini-app.
#include <gtest/gtest.h>

#include "acr/scenario.h"
#include "checksum/fletcher.h"
#include "failure/injector.h"

namespace acr {
namespace {

/// A small Jacobi3D job with 2 spares and frequent checkpoints.
Scenario small_job() {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = 2;
  cfg.tasks_y = 2;
  cfg.tasks_z = 2;
  cfg.block_x = 4;
  cfg.block_y = 4;
  cfg.block_z = 4;
  cfg.iterations = 30;
  cfg.slots_per_node = 2;   // 4 nodes per replica
  cfg.seconds_per_point = 1e-5;
  Scenario s;
  s.app = cfg;
  s.acr.checkpoint_interval = 0.002;
  s.acr.heartbeat_period = 0.001;
  s.acr.heartbeat_timeout = 0.005;
  s.cluster.spare_nodes = 2;
  return s;
}

/// Digest of the application state of one replica (for cross-run checks).
std::uint64_t replica_digest(AcrRuntime& runtime, int replica) {
  checksum::Fletcher64 f;
  for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i) {
    pup::Checkpoint c = runtime.cluster().node_at(replica, i).pack_state();
    f.append(c.bytes());
  }
  return f.digest();
}

TEST(IntegrationSmoke, FailureFreeRunCompletes) {
  auto job = start(small_job());
  AcrRuntime& runtime = *job;
  RunSummary s = runtime.run(1e4);
  EXPECT_TRUE(s.complete);
  EXPECT_FALSE(s.failed);
  EXPECT_GT(s.checkpoints, 0u);
  EXPECT_EQ(s.sdc_detected, 0u);
  EXPECT_EQ(s.hard_failures, 0u);
  // Replicas must agree bit-for-bit at the end of a failure-free run.
  EXPECT_EQ(replica_digest(runtime, 0), replica_digest(runtime, 1));
}

TEST(IntegrationSmoke, InjectedSdcIsDetectedAndRepaired) {
  auto job = start(small_job());
  AcrRuntime& runtime = *job;
  // Corrupt an interior solution value in replica 0, node 1, slot 0 — data
  // that is checkpointed and propagates, so detection is guaranteed.
  runtime.engine().schedule_at(0.004, [&runtime]() {
    auto& task = static_cast<apps::Jacobi3DTask&>(
        runtime.cluster().node_at(0, 1).task(0));
    task.value_at(1, 1, 1) += 1.0;
    runtime.cluster().trace().record(runtime.engine().now(),
                                     rt::TraceKind::SdcInjected, 0, 1);
  });
  RunSummary s = runtime.run(1e4);
  EXPECT_TRUE(s.complete);
  EXPECT_GE(s.sdc_detected, 1u);
  EXPECT_EQ(replica_digest(runtime, 0), replica_digest(runtime, 1));
}

TEST(IntegrationSmoke, HardFailureIsRecovered) {
  Scenario crash = small_job();
  crash.acr.scheme = ResilienceScheme::Strong;
  crash.scripted = {failure::Fault::kill_role(0.006, 1, 2)};
  auto job = start(crash);
  AcrRuntime& runtime = *job;
  RunSummary s = runtime.run(1e4);
  EXPECT_TRUE(s.complete);
  EXPECT_EQ(s.hard_failures, 1u);
  EXPECT_EQ(s.recoveries, 1u);
  EXPECT_EQ(replica_digest(runtime, 0), replica_digest(runtime, 1));
}

/// Golden-run equivalence: with failures injected and recovered, the final
/// application state matches a failure-free reference run bit-for-bit.
TEST(IntegrationSmoke, RecoveredRunMatchesReference) {
  std::uint64_t reference = 0;
  {
    auto job = start(small_job());
    AcrRuntime& runtime = *job;
    RunSummary s = runtime.run(1e4);
    ASSERT_TRUE(s.complete);
    reference = replica_digest(runtime, 0);
  }
  {
    Scenario crash = small_job();
    crash.scripted = {failure::Fault::kill_role(0.005, 0, 3)};
    auto job = start(crash);
    AcrRuntime& runtime = *job;
    runtime.engine().schedule_at(0.009, [&runtime]() {
      auto& task = static_cast<apps::Jacobi3DTask&>(
          runtime.cluster().node_at(1, 0).task(1));
      task.value_at(2, 2, 2) -= 0.5;
      runtime.cluster().trace().record(runtime.engine().now(),
                                       rt::TraceKind::SdcInjected, 1, 0);
    });
    RunSummary s = runtime.run(1e4);
    ASSERT_TRUE(s.complete);
    EXPECT_EQ(replica_digest(runtime, 0), reference);
    EXPECT_EQ(replica_digest(runtime, 1), reference);
  }
}

}  // namespace
}  // namespace acr
