// Additional protocol- and app-level properties: periodic spacing, the
// verify_at_completion switch, feature composition (semi-blocking +
// adaptive + prediction), and numerical sanity of the Jacobi solver.
#include <gtest/gtest.h>

#include "acr/scenario.h"
#include "failure/distributions.h"

namespace acr {
namespace {

/// A Jacobi3D job of `iterations` iterations under `ac`, no spares.
Scenario job_of(const AcrConfig& ac, std::uint64_t iterations = 40) {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = cfg.tasks_z = 2;
  cfg.block_x = cfg.block_y = cfg.block_z = 4;
  cfg.iterations = iterations;
  cfg.slots_per_node = 2;
  cfg.seconds_per_point = 1e-5;
  Scenario s;
  s.app = cfg;
  s.acr = ac;
  s.cluster.spare_nodes = 0;
  return s;
}

TEST(Protocol, CommitsAreSpacedByTheConfiguredInterval) {
  AcrConfig ac;
  ac.checkpoint_interval = 0.004;
  auto job = start(job_of(ac, 60));
  AcrRuntime& runtime = *job;
  RunSummary s = runtime.run(100.0);
  ASSERT_TRUE(s.complete);
  std::vector<double> commits;
  for (const auto& e : runtime.trace().events())
    if (e.kind == rt::TraceKind::CheckpointCommitted) commits.push_back(e.time);
  ASSERT_GE(commits.size(), 4u);
  // Gaps are interval + protocol latency; never shorter than the interval
  // and never more than ~50% longer (the final verification checkpoint can
  // fire early, so stop before the last gap).
  for (std::size_t i = 1; i + 1 < commits.size(); ++i) {
    double gap = commits[i] - commits[i - 1];
    EXPECT_GE(gap, ac.checkpoint_interval * 0.99) << "gap " << i;
    EXPECT_LE(gap, ac.checkpoint_interval * 1.5) << "gap " << i;
  }
}

TEST(Protocol, VerifyAtCompletionOffMatchesPaperSemantics) {
  AcrConfig ac;
  ac.checkpoint_interval = 0.004;
  ac.verify_at_completion = false;
  auto job = start(job_of(ac));
  AcrRuntime& runtime = *job;
  RunSummary s = runtime.run(100.0);
  ASSERT_TRUE(s.complete);
  // Completion declared by the first finished replica, not by a final
  // verification epoch.
  const rt::TraceEvent* done =
      runtime.trace().find_first(rt::TraceKind::JobComplete);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->detail, "replica finished");
}

TEST(Protocol, VerifyAtCompletionOnEmitsVerifiedResult) {
  AcrConfig ac;
  ac.checkpoint_interval = 0.004;
  auto job = start(job_of(ac));
  AcrRuntime& runtime = *job;
  RunSummary s = runtime.run(100.0);
  ASSERT_TRUE(s.complete);
  const rt::TraceEvent* done =
      runtime.trace().find_first(rt::TraceKind::JobComplete);
  ASSERT_NE(done, nullptr);
  EXPECT_EQ(done->detail, "verified result");
  // The final verification is the last committed epoch.
  double last_commit = 0.0;
  for (const auto& e : runtime.trace().events())
    if (e.kind == rt::TraceKind::CheckpointCommitted) last_commit = e.time;
  EXPECT_LE(last_commit, done->time + 1e-9);
  EXPECT_GT(last_commit, 0.0);
}

TEST(Protocol, AllFeaturesComposeUnderFaults) {
  // Semi-blocking + adaptive interval + failure prediction + checksum
  // detection, with a mixed fault storm: must terminate correctly.
  Scenario storm = job_of(AcrConfig{}, 60);
  AcrConfig& ac = storm.acr;
  ac.scheme = ResilienceScheme::Strong;
  ac.detection = SdcDetection::Checksum;
  ac.semi_blocking = true;
  ac.adaptive = true;
  ac.adaptive_config.checkpoint_cost = 2e-4;
  ac.adaptive_config.min_interval = 0.002;
  ac.adaptive_config.max_interval = 0.02;
  ac.checkpoint_interval = 0.004;
  ac.heartbeat_period = 0.0005;
  ac.heartbeat_timeout = 0.002;
  storm.cluster.spare_nodes = 12;
  storm.cluster.seed = 777;
  PredictorConfig pred;
  pred.recall = 0.7;
  pred.precision = 0.8;
  pred.lead_time = 0.001;
  storm.predictor = pred;
  storm.faults.arrivals = std::make_shared<failure::RenewalProcess>(
      std::make_shared<failure::Exponential>(0.01));
  storm.faults.sdc_fraction = 0.4;
  storm.max_virtual_time = 60.0;
  RunSummary s = run(storm).summary;
  EXPECT_TRUE(s.complete || s.failed) << "wedged at " << s.finish_time;
}

TEST(Jacobi, StencilSmoothsTowardTheZeroBoundary) {
  // With zero Dirichlet-style ghosts, repeated averaging must contract the
  // solution norm; more iterations, smaller norm.
  auto run_norm = [](std::uint64_t iterations) {
    AcrConfig ac;
    ac.checkpoint_interval = 1e6;  // pure solve
    auto job = start(job_of(ac, iterations));
    AcrRuntime& runtime = *job;
    RunSummary s = runtime.run(100.0);
    EXPECT_TRUE(s.complete);
    double norm = 0.0;
    for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i) {
      rt::Node& node = runtime.cluster().node_at(0, i);
      for (int t = 0; t < node.num_tasks(); ++t)
        norm += static_cast<apps::Jacobi3DTask&>(node.task(t)).solution_norm();
    }
    return norm;
  };
  double n5 = run_norm(5);
  double n20 = run_norm(20);
  double n60 = run_norm(60);
  EXPECT_GT(n5, n20);
  EXPECT_GT(n20, n60);
  EXPECT_GT(n60, 0.0);
}

}  // namespace
}  // namespace acr
