// Randomized fault-injection fuzzing of the whole framework.
//
// Property: under the strong scheme with enough spares, a job subjected to
// ANY mix of bit flips and fail-stop crashes either completes with the
// exact failure-free answer (bitwise) or fails gracefully when the spare
// pool is exhausted — it never hangs, never commits a wrong answer.
// Medium/weak may commit corrupted answers (their documented trade-off)
// but must never hang either.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "checksum/fletcher.h"
#include "common/rng.h"
#include "failure/distributions.h"
#include "soak_util.h"

namespace acr {
namespace {

apps::Jacobi3DConfig fuzz_app() {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = 2;
  cfg.tasks_z = 4;
  cfg.block_x = cfg.block_y = cfg.block_z = 4;
  cfg.iterations = 40;
  cfg.slots_per_node = 2;  // 8 nodes per replica
  cfg.seconds_per_point = 1e-5;
  return cfg;
}

/// Digest of a replica's live state (reference run: no faults in flight).
std::uint64_t replica_digest(AcrRuntime& runtime, int replica) {
  checksum::Fletcher64 f;
  for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i)
    f.append(runtime.cluster().node_at(replica, i).pack_state().bytes());
  return f.digest();
}

using soak::verified_digest;

std::uint64_t reference_digest() {
  static std::uint64_t cached = [] {
    apps::Jacobi3DConfig j = fuzz_app();
    AcrConfig ac;
    ac.checkpoint_interval = 0.003;
    rt::ClusterConfig cc;
    cc.nodes_per_replica = j.nodes_needed();
    cc.spare_nodes = 0;
    AcrRuntime runtime(ac, cc);
    runtime.set_task_factory(j.factory());
    runtime.setup();
    RunSummary s = runtime.run(1e3);
    ACR_REQUIRE(s.complete, "fuzz reference run must complete");
    // Live state and verified images agree in a fault-free run; digest the
    // verified images so the comparison is like-for-like.
    std::uint64_t live = replica_digest(runtime, 0);
    std::uint64_t verified = verified_digest(runtime);
    ACR_REQUIRE(live == verified, "reference live/verified divergence");
    return verified;
  }();
  return cached;
}

struct FuzzOutcome {
  RunSummary summary;
  std::uint64_t digest = 0;
};

FuzzOutcome fuzz_run(ResilienceScheme scheme, std::uint64_t seed,
                     double fault_mtbf, double sdc_fraction) {
  apps::Jacobi3DConfig j = fuzz_app();
  AcrConfig ac;
  ac.scheme = scheme;
  ac.checkpoint_interval = 0.003;
  ac.heartbeat_period = 0.0004;
  ac.heartbeat_timeout = 0.0016;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 16;
  cc.seed = seed;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  FaultPlan plan;
  plan.arrivals = std::make_shared<failure::RenewalProcess>(
      std::make_shared<failure::Exponential>(fault_mtbf));
  plan.sdc_fraction = sdc_fraction;
  runtime.set_fault_plan(plan);

  FuzzOutcome out;
  out.summary = runtime.run(/*max_virtual_time=*/30.0);
  if (out.summary.complete) {
    // Let the in-flight commit/promotion messages of the final
    // verification land before reading the verified images.
    runtime.engine().run_until(out.summary.finish_time + 0.05);
    out.digest = verified_digest(runtime);
  }
  return out;
}

class FaultFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultFuzz, StrongSchemeNeverCommitsWrongAnswer) {
  std::uint64_t seed = 1000 + static_cast<std::uint64_t>(GetParam()) * 7919;
  // Mixed faults arriving a few times per checkpoint-interval-decade.
  FuzzOutcome o = fuzz_run(ResilienceScheme::Strong, seed,
                           /*fault_mtbf=*/0.008, /*sdc_fraction=*/0.5);
  // Never hang: either done or failed by spare exhaustion.
  ASSERT_TRUE(o.summary.complete || o.summary.failed)
      << "wedged at t=" << o.summary.finish_time << " (seed " << seed << ")";
  if (o.summary.complete) {
    EXPECT_EQ(o.digest, reference_digest()) << "seed " << seed;
  }
}

TEST_P(FaultFuzz, MediumAndWeakNeverHang) {
  std::uint64_t seed = 5000 + static_cast<std::uint64_t>(GetParam()) * 104729;
  for (ResilienceScheme scheme :
       {ResilienceScheme::Medium, ResilienceScheme::Weak}) {
    FuzzOutcome o = fuzz_run(scheme, seed, /*fault_mtbf=*/0.010,
                             /*sdc_fraction=*/0.3);
    ASSERT_TRUE(o.summary.complete || o.summary.failed)
        << resilience_scheme_name(scheme) << " wedged (seed " << seed << ")";
    if (o.summary.complete) {
      // Whatever they commit, a verified answer exists (possibly silently
      // corrupted — the weak/medium trade-off — but internally coherent).
      EXPECT_NE(o.digest, 0u)
          << resilience_scheme_name(scheme) << " seed " << seed;
    }
  }
}

TEST_P(FaultFuzz, HardFailureStormIsSurvivedOrFailsCleanly) {
  std::uint64_t seed = 9000 + static_cast<std::uint64_t>(GetParam()) * 31337;
  FuzzOutcome o = fuzz_run(ResilienceScheme::Strong, seed,
                           /*fault_mtbf=*/0.004, /*sdc_fraction=*/0.0);
  ASSERT_TRUE(o.summary.complete || o.summary.failed) << "seed " << seed;
  if (o.summary.complete) {
    EXPECT_EQ(o.digest, reference_digest()) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultFuzz, ::testing::Range(0, 10));

// ---------------------------------------------------------------------------
// Network-fault fuzzing: the reliable transport under randomized loss,
// duplication, reordering, and corruption schedules.
//
// Property: network faults alone are invisible to the job. Every run
// completes, no task's completed-iteration count ever moves backwards (a
// regression here means a duplicated or reordered control message caused a
// spurious rollback or epoch reset), and the final verified answer is
// bitwise identical to a fault-free run's.
// ---------------------------------------------------------------------------

/// Smaller app than fuzz_app(): the network fuzz sweeps 200+ seeds, so each
/// run must stay cheap. 8 tasks on 4 nodes per replica.
apps::Jacobi3DConfig net_fuzz_app() {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = 2;
  cfg.tasks_z = 2;
  cfg.block_x = cfg.block_y = cfg.block_z = 4;
  cfg.iterations = 25;
  cfg.slots_per_node = 2;  // 4 nodes per replica
  cfg.seconds_per_point = 1e-5;
  return cfg;
}

/// Fault-free verified digest for net_fuzz_app under `scheme` (cached — the
/// answer is scheme-independent in a fault-free run, but computing it per
/// scheme keeps the comparison honest about it).
std::uint64_t net_reference_digest(ResilienceScheme scheme) {
  static std::map<ResilienceScheme, std::uint64_t> cached;
  auto it = cached.find(scheme);
  if (it != cached.end()) return it->second;
  apps::Jacobi3DConfig j = net_fuzz_app();
  AcrConfig ac;
  ac.scheme = scheme;
  ac.checkpoint_interval = 0.003;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 0;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  RunSummary s = runtime.run(1e3);
  ACR_REQUIRE(s.complete, "net fuzz reference run must complete");
  std::uint64_t digest = verified_digest(runtime);
  cached[scheme] = digest;
  return digest;
}

/// Samples every live task's completed-iteration count on a fixed cadence
/// and counts regressions. Arm only for runs without node faults: rollbacks
/// legitimately rewind progress.
class ProgressMonotonicitySampler {
 public:
  ProgressMonotonicitySampler(AcrRuntime& runtime, double period)
      : runtime_(runtime), period_(period) {}

  void start() { arm(); }
  int violations() const { return violations_; }

 private:
  void arm() {
    runtime_.engine().schedule_after(period_, [this] {
      sample();
      arm();
    });
  }
  void sample() {
    rt::Cluster& c = runtime_.cluster();
    for (int r = 0; r < 2; ++r)
      for (int i = 0; i < c.nodes_per_replica(); ++i) {
        rt::Node& n = c.node_at(r, i);
        if (!n.alive()) continue;
        for (int s = 0; s < n.num_tasks(); ++s) {
          std::uint64_t& prev = last_[std::make_tuple(r, i, s)];
          std::uint64_t cur = n.task_progress(s);
          if (cur < prev) ++violations_;
          if (cur > prev) prev = cur;
        }
      }
  }

  AcrRuntime& runtime_;
  double period_;
  std::map<std::tuple<int, int, int>, std::uint64_t> last_;
  int violations_ = 0;
};

/// One randomized network-fault run. Rates are drawn from the seed: loss up
/// to 5%, duplication up to 3%, extra-latency reordering up to 30%, bit
/// corruption up to 2%. `fault_mtbf > 0` additionally injects node faults
/// (and disarms the monotonicity assertion).
FuzzOutcome net_fuzz_run(ResilienceScheme scheme, std::uint64_t seed,
                         double fault_mtbf, int* monotone_violations) {
  apps::Jacobi3DConfig j = net_fuzz_app();
  AcrConfig ac;
  ac.scheme = scheme;
  ac.checkpoint_interval = 0.003;
  ac.heartbeat_period = 0.0004;
  ac.heartbeat_timeout = 0.0016;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = fault_mtbf > 0.0 ? 16 : 2;
  cc.seed = seed;
  Pcg32 rates(seed, 0x4E7F);
  cc.net_faults.drop_rate = 0.05 * rates.uniform();
  cc.net_faults.dup_rate = 0.03 * rates.uniform();
  cc.net_faults.reorder_rate = 0.30 * rates.uniform();
  cc.net_faults.corrupt_rate = 0.02 * rates.uniform();
  cc.net_faults.reorder_max_extra = 5e-5 + 2e-4 * rates.uniform();
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  if (fault_mtbf > 0.0) {
    FaultPlan plan;
    plan.arrivals = std::make_shared<failure::RenewalProcess>(
        std::make_shared<failure::Exponential>(fault_mtbf));
    plan.sdc_fraction = 0.3;
    runtime.set_fault_plan(plan);
  }
  ProgressMonotonicitySampler sampler(runtime, 2.5e-4);
  if (monotone_violations) sampler.start();

  FuzzOutcome out;
  out.summary = runtime.run(/*max_virtual_time=*/30.0);
  if (out.summary.complete) {
    runtime.engine().run_until(out.summary.finish_time + 0.05);
    out.digest = verified_digest(runtime);
  }
  if (monotone_violations) *monotone_violations = sampler.violations();
  return out;
}

class NetFuzz : public ::testing::TestWithParam<int> {};

TEST_P(NetFuzz, LossyNetworkIsInvisibleToTheJob) {
  int param = GetParam();
  std::uint64_t seed = 40000 + static_cast<std::uint64_t>(param) * 6151;
  ResilienceScheme scheme = param % 3 == 0   ? ResilienceScheme::Strong
                            : param % 3 == 1 ? ResilienceScheme::Medium
                                             : ResilienceScheme::Weak;
  int violations = -1;
  FuzzOutcome o = net_fuzz_run(scheme, seed, /*fault_mtbf=*/0.0, &violations);
  ASSERT_TRUE(o.summary.complete)
      << resilience_scheme_name(scheme) << " wedged at t="
      << o.summary.finish_time << " (seed " << seed << ")";
  EXPECT_EQ(violations, 0) << "progress moved backwards (seed " << seed << ")";
  EXPECT_EQ(o.digest, net_reference_digest(scheme)) << "seed " << seed;
  // No link between live endpoints may exhaust its retry budget at these
  // rates, so the degradation path must never fire.
  EXPECT_EQ(o.summary.net_link_failures, 0u) << "seed " << seed;
  EXPECT_EQ(o.summary.scratch_restarts, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetFuzz, ::testing::Range(0, 210));

class NetStorm : public ::testing::TestWithParam<int> {};

TEST_P(NetStorm, NodeFaultsUnderLossyNetworkSurviveOrFailCleanly) {
  std::uint64_t seed = 80000 + static_cast<std::uint64_t>(GetParam()) * 26947;
  FuzzOutcome o = net_fuzz_run(ResilienceScheme::Strong, seed,
                               /*fault_mtbf=*/0.008, nullptr);
  ASSERT_TRUE(o.summary.complete || o.summary.failed)
      << "wedged at t=" << o.summary.finish_time << " (seed " << seed << ")";
  if (o.summary.complete) {
    EXPECT_EQ(o.digest, net_reference_digest(ResilienceScheme::Strong))
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetStorm, ::testing::Range(0, 20));

/// Task messages dropped at a node's restart gate in the first 20 ms of
/// acr_driver's default jacobi job (8 nodes per replica, strong, partner)
/// with --iterations 20 --fault-mtbf 0.01 --sdc-fraction 1.0 --seed 8 and
/// the given --net-loss.
std::uint64_t wedge_repro_gated_drops(double net_loss) {
  apps::Jacobi3DConfig j;
  j.tasks_x = j.tasks_y = 2;
  j.tasks_z = 8;
  j.block_x = j.block_y = j.block_z = 4;
  j.slots_per_node = 4;
  j.iterations = 20;
  j.seconds_per_point = 1e-5;
  AcrConfig ac;
  ac.scheme = ResilienceScheme::Strong;
  ac.checkpoint_interval = 0.004;
  ac.heartbeat_period = 0.0005;
  ac.heartbeat_timeout = 0.002;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = 8;
  cc.spare_nodes = 4;
  cc.seed = 8;
  cc.net_faults.drop_rate = net_loss;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  FaultPlan plan;
  plan.arrivals = std::make_shared<failure::RenewalProcess>(
      std::make_shared<failure::Exponential>(0.01));
  plan.sdc_fraction = 1.0;
  runtime.set_fault_plan(plan);
  runtime.run(0.02);
  return runtime.cluster().net_counters().gated_drops;
}

// A lossy network delays one node's kResume behind a retransmit, and its
// resumed neighbours' next halos reach it while it is still gated. Those
// drops are what wedge this run; the counter makes them visible.
TEST(GateDrops, LossyWedgeReproDropsHalosAtTheGate) {
  EXPECT_GT(wedge_repro_gated_drops(0.01), 0u);
}

TEST(GateDrops, CleanNetworkTwinDropsNone) {
  EXPECT_EQ(wedge_repro_gated_drops(0.0), 0u);
}

}  // namespace
}  // namespace acr
