// Fig. 5 control-flow tests: trace-level assertions that each scheme's
// recovery follows the paper's event sequence, not merely that it ends in
// the right state.
#include <gtest/gtest.h>

#include "acr/runtime.h"
#include "acr/stats.h"
#include "apps/jacobi3d.h"

namespace acr {
namespace {

apps::Jacobi3DConfig app_cfg() {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = cfg.tasks_z = 2;
  cfg.block_x = cfg.block_y = cfg.block_z = 4;
  cfg.iterations = 40;
  cfg.slots_per_node = 2;
  cfg.seconds_per_point = 1e-5;
  return cfg;
}

struct DriverRun {
  std::unique_ptr<AcrRuntime> runtime;
  RunSummary summary;
};

DriverRun run_with_kill(ResilienceScheme scheme, double kill_at) {
  apps::Jacobi3DConfig j = app_cfg();
  AcrConfig ac;
  ac.scheme = scheme;
  ac.checkpoint_interval = 0.005;
  ac.heartbeat_period = 0.0005;
  ac.heartbeat_timeout = 0.002;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 2;
  DriverRun run;
  run.runtime = std::make_unique<AcrRuntime>(ac, cc);
  run.runtime->set_task_factory(j.factory());
  run.runtime->setup();
  run.runtime->engine().schedule_at(kill_at, [&rt_ = *run.runtime] {
    rt_.cluster().trace().record(rt_.engine().now(),
                                 rt::TraceKind::HardFailureInjected, 1, 1);
    rt_.cluster().kill_role(1, 1);
  });
  run.summary = run.runtime->run(100.0);
  return run;
}

/// First event of `kind` at or after time `t` (several protocol steps can
/// share a timestamp in virtual time).
const rt::TraceEvent* first_after(const rt::TraceLog& log, rt::TraceKind kind,
                                  double t) {
  for (const auto& e : log.events())
    if (e.kind == kind && e.time >= t) return &e;
  return nullptr;
}

double last_commit_before(const rt::TraceLog& log, double t) {
  double result = -1.0;
  for (const auto& e : log.events())
    if (e.kind == rt::TraceKind::CheckpointCommitted && e.time < t)
      result = e.time;
  return result;
}

TEST(ControlFlow, StrongRollsBackWithoutNewCheckpoint) {
  // Fig. 5b: the crashed replica restarts from the checkpoint at T1; no
  // recovery checkpoint is taken between detection and recovery-complete.
  DriverRun run = run_with_kill(ResilienceScheme::Strong, 0.012);
  ASSERT_TRUE(run.summary.complete);
  const auto& log = run.runtime->trace();
  const auto* detected =
      first_after(log, rt::TraceKind::HardFailureDetected, 0.012);
  ASSERT_NE(detected, nullptr);
  const auto* recovered =
      first_after(log, rt::TraceKind::RecoveryCompleted, detected->time);
  ASSERT_NE(recovered, nullptr);
  // No checkpoint request in (detected, recovered): strong reuses T1.
  const auto* req =
      first_after(log, rt::TraceKind::CheckpointRequested, detected->time);
  if (req != nullptr) {
    EXPECT_GE(req->time, recovered->time)
        << "strong recovery must not take a fresh checkpoint";
  }
  // A verified checkpoint existed before the failure to roll back to.
  EXPECT_GT(last_commit_before(log, detected->time), 0.0);
}

TEST(ControlFlow, MediumTakesImmediateRecoveryCheckpoint) {
  // Fig. 5c: detection triggers a (recovery) checkpoint right away, well
  // before the next periodic tick would have fired.
  DriverRun run = run_with_kill(ResilienceScheme::Medium, 0.012);
  ASSERT_TRUE(run.summary.complete);
  const auto& log = run.runtime->trace();
  const auto* detected =
      first_after(log, rt::TraceKind::HardFailureDetected, 0.012);
  ASSERT_NE(detected, nullptr);
  const auto* req =
      first_after(log, rt::TraceKind::CheckpointRequested, detected->time);
  ASSERT_NE(req, nullptr);
  EXPECT_NE(req->detail.find("recovery"), std::string::npos);
  EXPECT_LT(req->time - detected->time, 0.002)
      << "medium must checkpoint immediately on detection";
  const auto* recovered =
      first_after(log, rt::TraceKind::RecoveryCompleted, detected->time);
  ASSERT_NE(recovered, nullptr);
  EXPECT_GE(recovered->time, req->time);
}

TEST(ControlFlow, WeakWaitsForNextPeriodicCheckpoint) {
  // Fig. 5d: nothing happens at detection; recovery rides the next
  // periodic checkpoint (~interval after the last commit).
  DriverRun run = run_with_kill(ResilienceScheme::Weak, 0.012);
  ASSERT_TRUE(run.summary.complete);
  const auto& log = run.runtime->trace();
  const auto* detected =
      first_after(log, rt::TraceKind::HardFailureDetected, 0.012);
  ASSERT_NE(detected, nullptr);
  const auto* req =
      first_after(log, rt::TraceKind::CheckpointRequested, detected->time);
  ASSERT_NE(req, nullptr);
  // The recovery checkpoint is the next *scheduled* one: it fires no
  // sooner than ~40% of an interval after detection in this timing
  // arrangement (kill shortly after a periodic commit).
  EXPECT_GT(req->time - detected->time, 0.002)
      << "weak must not take an immediate checkpoint";
  const auto* recovered =
      first_after(log, rt::TraceKind::RecoveryCompleted, req->time);
  ASSERT_NE(recovered, nullptr);
}

TEST(ControlFlow, HardOnlyRecoversWithoutPeriodicCheckpoints) {
  // Fig. 5a: no periodic checkpointing at all; the failure triggers the
  // one and only (recovery) checkpoint.
  DriverRun run = run_with_kill(ResilienceScheme::HardOnly, 0.012);
  ASSERT_TRUE(run.summary.complete);
  const auto& log = run.runtime->trace();
  std::size_t requests = log.count(rt::TraceKind::CheckpointRequested);
  EXPECT_EQ(requests, 1u);  // exactly the recovery checkpoint
  const auto* req = first_after(log, rt::TraceKind::CheckpointRequested, 0.0);
  ASSERT_NE(req, nullptr);
  EXPECT_NE(req->detail.find("recovery"), std::string::npos);
  EXPECT_EQ(log.count(rt::TraceKind::RecoveryCompleted), 1u);
}

TEST(ControlFlow, RecoveryLatencyIsBoundedByDetectionPlusTransfer) {
  DriverRun run = run_with_kill(ResilienceScheme::Strong, 0.012);
  ASSERT_TRUE(run.summary.complete);
  TraceSummary ts = summarize_trace(run.runtime->trace());
  ASSERT_EQ(ts.recoveries.size(), 1u);
  // Detection took ~heartbeat_timeout; recovery itself (restore barrier)
  // is a few checkpoint-transfer latencies, well under one interval.
  EXPECT_LT(ts.mean_detection_latency, 0.004);
  EXPECT_LT(ts.recoveries[0].duration(), 0.005);
}

}  // namespace
}  // namespace acr
