// Scheme-level integration tests (§2.3, Fig. 4/5): strong / medium / weak /
// hard-only recovery semantics, the checksum detection mode, the
// unprotected-window trade-off, escalation, and adaptivity.
#include <gtest/gtest.h>

#include "acr/scenario.h"
#include "checksum/fletcher.h"
#include "failure/distributions.h"

namespace acr {
namespace {

apps::Jacobi3DConfig jacobi_cfg() {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = 2;
  cfg.tasks_y = 2;
  cfg.tasks_z = 2;
  cfg.block_x = 4;
  cfg.block_y = 4;
  cfg.block_z = 4;
  cfg.iterations = 30;
  cfg.slots_per_node = 2;  // 4 nodes per replica
  cfg.seconds_per_point = 1e-5;
  return cfg;
}

AcrConfig fast_acr(ResilienceScheme scheme) {
  AcrConfig cfg;
  cfg.scheme = scheme;
  cfg.checkpoint_interval = 0.004;
  cfg.heartbeat_period = 0.0005;
  cfg.heartbeat_timeout = 0.002;
  return cfg;
}

/// `app` under `ac` with `spares` spares, set up and ready to run.
std::unique_ptr<AcrRuntime> start_job(const AcrConfig& ac, int spares = 2,
                                      const apps::Jacobi3DConfig& app =
                                          jacobi_cfg()) {
  Scenario s;
  s.app = app;
  s.acr = ac;
  s.cluster.spare_nodes = spares;
  return start(s);
}

std::uint64_t replica_digest(AcrRuntime& runtime, int replica) {
  checksum::Fletcher64 f;
  for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i) {
    pup::Checkpoint c = runtime.cluster().node_at(replica, i).pack_state();
    f.append(c.bytes());
  }
  return f.digest();
}

std::uint64_t reference_digest() {
  static std::uint64_t cached = [] {
    auto job = start_job(fast_acr(ResilienceScheme::Strong));
    AcrRuntime& runtime = *job;
    RunSummary s = runtime.run(1e3);
    ACR_REQUIRE(s.complete, "reference run must complete");
    return replica_digest(runtime, 0);
  }();
  return cached;
}

void corrupt(AcrRuntime& runtime, int replica, int node, int slot) {
  auto& task =
      static_cast<apps::Jacobi3DTask&>(runtime.cluster().node_at(replica, node).task(slot));
  task.value_at(1, 2, 1) += 3.0;
  runtime.cluster().trace().record(runtime.engine().now(),
                                   rt::TraceKind::SdcInjected, replica, node);
}

class SchemeRecovery : public ::testing::TestWithParam<ResilienceScheme> {};

TEST_P(SchemeRecovery, HardFailureRecoversToReferenceState) {
  auto job = start_job(fast_acr(GetParam()));
  AcrRuntime& runtime = *job;
  runtime.inject(failure::Fault::kill_role(0.006, 1, 2));
  RunSummary s = runtime.run(1e3);
  ASSERT_TRUE(s.complete) << resilience_scheme_name(GetParam());
  EXPECT_EQ(s.hard_failures, 1u);
  EXPECT_EQ(s.recoveries, 1u);
  // Completion fires when the first replica finishes; give the recovered
  // replica (which restarted a little later) time to catch up before
  // comparing final states.
  runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(replica_digest(runtime, 0), reference_digest());
  EXPECT_EQ(replica_digest(runtime, 1), reference_digest());
  EXPECT_EQ(runtime.trace().count(rt::TraceKind::RecoveryCompleted), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SchemeRecovery,
                         ::testing::Values(ResilienceScheme::Strong,
                                           ResilienceScheme::Medium,
                                           ResilienceScheme::Weak,
                                           ResilienceScheme::HardOnly),
                         [](const auto& info) {
                           std::string name =
                               resilience_scheme_name(info.param);
                           // gtest parameter names must be alphanumeric.
                           std::erase(name, '-');
                           return name;
                         });

/// The §2.3 trade-off, demonstrated end-to-end. An SDC lands in the
/// healthy replica just before the other replica suffers a hard failure.
///  * Strong: the corruption is caught at the next comparison (the crashed
///    replica recomputed the interval cleanly) and rolled back — the final
///    state matches the failure-free reference.
///  * Weak/medium: the recovery checkpoint copies the corruption to both
///    replicas; it becomes permanently undetectable — both replicas agree
///    with each other but NOT with the reference.
TEST(UnprotectedWindow, StrongCatchesWhatWeakCommits) {
  auto run_scenario = [&](ResilienceScheme scheme) {
    auto job = start_job(fast_acr(scheme));
    AcrRuntime& runtime = *job;
    runtime.engine().schedule_at(0.0050, [&] { corrupt(runtime, 0, 1, 0); });
    runtime.inject(failure::Fault::kill_role(0.0052, 1, 3));
    RunSummary s = runtime.run(1e3);
    EXPECT_TRUE(s.complete) << resilience_scheme_name(scheme);
    EXPECT_EQ(replica_digest(runtime, 0), replica_digest(runtime, 1));
    return std::make_pair(replica_digest(runtime, 0), s);
  };

  auto [strong_digest, strong_summary] =
      run_scenario(ResilienceScheme::Strong);
  EXPECT_EQ(strong_digest, reference_digest());
  EXPECT_GE(strong_summary.sdc_detected, 1u);

  auto [weak_digest, weak_summary] = run_scenario(ResilienceScheme::Weak);
  EXPECT_NE(weak_digest, reference_digest());  // silently corrupted result
  EXPECT_EQ(weak_summary.sdc_detected, 0u);

  auto [medium_digest, medium_summary] =
      run_scenario(ResilienceScheme::Medium);
  EXPECT_NE(medium_digest, reference_digest());
  EXPECT_EQ(medium_summary.sdc_detected, 0u);
}

TEST(Detection, ChecksumModeDetectsSdc) {
  AcrConfig cfg = fast_acr(ResilienceScheme::Strong);
  cfg.detection = SdcDetection::Checksum;
  auto job = start_job(cfg);
  AcrRuntime& runtime = *job;
  runtime.engine().schedule_at(0.005, [&] { corrupt(runtime, 1, 0, 1); });
  RunSummary s = runtime.run(1e3);
  ASSERT_TRUE(s.complete);
  EXPECT_GE(s.sdc_detected, 1u);
  EXPECT_EQ(replica_digest(runtime, 0), reference_digest());
}

TEST(Detection, CorruptionBeforeFirstCheckpointRestartsFromScratch) {
  AcrConfig cfg = fast_acr(ResilienceScheme::Strong);
  auto job = start_job(cfg);
  AcrRuntime& runtime = *job;
  runtime.engine().schedule_at(0.001, [&] { corrupt(runtime, 0, 0, 0); });
  RunSummary s = runtime.run(1e3);
  ASSERT_TRUE(s.complete);
  EXPECT_GE(s.scratch_restarts, 1u);
  EXPECT_EQ(replica_digest(runtime, 0), reference_digest());
}

TEST(HardOnly, NoPeriodicCheckpoints) {
  auto job = start_job(fast_acr(ResilienceScheme::HardOnly));
  AcrRuntime& runtime = *job;
  RunSummary s = runtime.run(1e3);
  ASSERT_TRUE(s.complete);
  EXPECT_EQ(s.checkpoints, 0u);
  EXPECT_EQ(runtime.trace().count(rt::TraceKind::CheckpointRequested), 0u);
}

TEST(Recovery, SecondFailureDuringRecoveryEscalates) {
  auto job = start_job(fast_acr(ResilienceScheme::Medium), 3);
  AcrRuntime& runtime = *job;
  runtime.inject(failure::Fault::kill_role(0.0060, 1, 2));
  // Second failure in the *other* replica while the first is being handled.
  runtime.inject(failure::Fault::kill_role(0.0085, 0, 1));
  RunSummary s = runtime.run(1e3);
  ASSERT_TRUE(s.complete);
  EXPECT_EQ(s.hard_failures, 2u);
  EXPECT_EQ(replica_digest(runtime, 0), reference_digest());
  EXPECT_EQ(replica_digest(runtime, 1), reference_digest());
}

TEST(Recovery, BuddyPairLossRestartsFromScratch) {
  auto job = start_job(fast_acr(ResilienceScheme::Strong), 3);
  AcrRuntime& runtime = *job;
  // Kill both members of buddy pair 2 nearly simultaneously.
  runtime.inject(failure::Fault::kill_role(0.0060, 1, 2));
  runtime.inject(failure::Fault::kill_role(0.0061, 0, 2));
  RunSummary s = runtime.run(1e3);
  ASSERT_TRUE(s.complete);
  EXPECT_GE(s.scratch_restarts, 1u);
  EXPECT_EQ(replica_digest(runtime, 0), reference_digest());
}

TEST(Recovery, SpareExhaustionFailsTheJob) {
  auto job = start_job(fast_acr(ResilienceScheme::Strong), /*spares=*/0);
  AcrRuntime& runtime = *job;
  runtime.inject(failure::Fault::kill_role(0.006, 0, 0));
  RunSummary s = runtime.run(1e3);
  EXPECT_TRUE(s.failed);
  EXPECT_FALSE(s.complete);
}

TEST(Adaptivity, IntervalTracksWeibullFailureRate) {
  apps::Jacobi3DConfig j = jacobi_cfg();
  j.iterations = 200;  // longer run so adaptivity has room to act
  AcrConfig cfg = fast_acr(ResilienceScheme::Strong);
  cfg.adaptive = true;
  cfg.adaptive_config.checkpoint_cost = 2e-4;
  cfg.adaptive_config.min_interval = 0.002;
  cfg.adaptive_config.max_interval = 0.05;
  cfg.adaptive_config.window = 4;
  auto job = start_job(cfg, 8, j);
  AcrRuntime& runtime = *job;
  // Decreasing-hazard hard failures (Fig. 12: Weibull shape 0.6).
  FaultPlan plan;
  plan.arrivals = std::make_shared<failure::WeibullProcess>(0.6, 0.004);
  plan.sdc_fraction = 0.0;
  plan.horizon = 0.06;
  runtime.set_fault_plan(plan);
  // Probe the controller's interval while failures are still frequent.
  double early_interval = 0.0;
  runtime.engine().schedule_at(0.055, [&] {
    early_interval = runtime.manager().current_interval();
  });
  RunSummary s = runtime.run(20.0);
  ASSERT_TRUE(s.complete);
  ASSERT_GE(s.hard_failures, 3u);

  // Fig. 12: the interval is short while failures are frequent and
  // stretches as the Weibull hazard decays and the quiet gap grows.
  double late_interval = runtime.manager().current_interval();
  EXPECT_GT(early_interval, 0.0);
  EXPECT_GT(late_interval, early_interval * 1.2);
  EXPECT_GT(s.checkpoints, 10u);
}

}  // namespace
}  // namespace acr
