// Semi-blocking (asynchronous) checkpointing — the paper's §4.2 future
// work, implemented: the application overlaps checkpoint transfer and
// comparison instead of stalling for them.
#include <gtest/gtest.h>

#include "acr/runtime.h"
#include "acr/stats.h"
#include "apps/jacobi3d.h"
#include "checksum/fletcher.h"

namespace acr {
namespace {

apps::Jacobi3DConfig app_cfg() {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = cfg.tasks_z = 2;
  cfg.block_x = cfg.block_y = cfg.block_z = 8;  // bigger checkpoints:
  cfg.iterations = 40;                          // transfer time matters
  cfg.slots_per_node = 2;
  cfg.seconds_per_point = 2e-6;
  return cfg;
}

AcrConfig acr_cfg(bool semi_blocking) {
  AcrConfig cfg;
  cfg.checkpoint_interval = 0.002;
  cfg.heartbeat_period = 0.0005;
  cfg.heartbeat_timeout = 0.002;
  cfg.semi_blocking = semi_blocking;
  // Slow the modelled compare so the overlap is measurable.
  return cfg;
}

RunSummary run(bool semi_blocking,
               std::function<void(AcrRuntime&)> tweak = {}) {
  apps::Jacobi3DConfig j = app_cfg();
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 2;
  cc.net.compare_bandwidth = 5.0e6;  // exaggerated compare cost
  cc.net.link_bandwidth = 20.0e6;    // exaggerated transfer cost
  AcrRuntime runtime(acr_cfg(semi_blocking), cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  if (tweak) tweak(runtime);
  RunSummary s = runtime.run(100.0);
  return s;
}

TEST(SemiBlocking, OverlapsComparisonWithExecution) {
  RunSummary blocking = run(false);
  RunSummary overlapped = run(true);
  ASSERT_TRUE(blocking.complete);
  ASSERT_TRUE(overlapped.complete);
  // Same checkpoints taken, but the forward path no longer pays the
  // transfer + comparison stall: measurably faster end to end.
  EXPECT_GT(overlapped.checkpoints, 0u);
  EXPECT_LT(overlapped.finish_time, blocking.finish_time * 0.95)
      << "blocking " << blocking.finish_time << " vs overlapped "
      << overlapped.finish_time;
  EXPECT_EQ(overlapped.sdc_detected, 0u);
}

TEST(SemiBlocking, StillDetectsSdc) {
  RunSummary s = run(true, [](AcrRuntime& runtime) {
    runtime.engine().schedule_at(0.003, [&runtime] {
      auto& task = static_cast<apps::Jacobi3DTask&>(
          runtime.cluster().node_at(0, 1).task(0));
      task.value_at(2, 2, 2) += 5.0;
      runtime.cluster().trace().record(runtime.engine().now(),
                                       rt::TraceKind::SdcInjected, 0, 1);
    });
  });
  ASSERT_TRUE(s.complete);
  EXPECT_GE(s.sdc_detected, 1u);
}

TEST(SemiBlocking, SurvivesHardFailure) {
  // Kill well after the first verified checkpoint (commits land late here:
  // the exaggerated transfer/compare costs stretch the pipeline).
  RunSummary s = run(true, [](AcrRuntime& runtime) {
    runtime.inject(failure::Fault::kill_role(0.012, 1, 2));
  });
  ASSERT_TRUE(s.complete);
  EXPECT_EQ(s.recoveries, 1u);
}

TEST(SemiBlocking, FinalStateMatchesBlockingRun) {
  auto digest = [](bool semi) {
    apps::Jacobi3DConfig j = app_cfg();
    rt::ClusterConfig cc;
    cc.nodes_per_replica = j.nodes_needed();
    cc.spare_nodes = 2;
    AcrRuntime runtime(acr_cfg(semi), cc);
    runtime.set_task_factory(j.factory());
    runtime.setup();
    RunSummary s = runtime.run(100.0);
    EXPECT_TRUE(s.complete);
    runtime.engine().run_until(s.finish_time + 0.05);
    checksum::Fletcher64 f;
    for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i)
      f.append(runtime.cluster().node_at(0, i).pack_state().bytes());
    return f.digest();
  };
  EXPECT_EQ(digest(false), digest(true));
}

}  // namespace
}  // namespace acr
