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
#include <string>
#include <tuple>

#include "checksum/fletcher.h"
#include "common/rng.h"
#include "failure/distributions.h"
#include "soak_util.h"

namespace acr {
namespace {

/// Digest of a replica's live state (reference run: no faults in flight).
std::uint64_t replica_digest(AcrRuntime& runtime, int replica) {
  checksum::Fletcher64 f;
  for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i)
    f.append(runtime.cluster().node_at(replica, i).pack_state().bytes());
  return f.digest();
}

/// The fault-free verified digest of `app` under `scheme` with the
/// default heartbeats and a 3 ms checkpoint interval.
std::uint64_t clean_digest(const apps::Jacobi3DConfig& app,
                           ResilienceScheme scheme, const char* what) {
  Scenario s;
  s.app = app;
  s.acr.scheme = scheme;
  s.acr.checkpoint_interval = 0.003;
  JobResult r = run(s);
  ACR_REQUIRE(r.summary.complete, what);
  return r.digest;
}

std::uint64_t reference_digest() {
  static std::uint64_t cached = [] {
    Scenario s;
    s.app = soak::small_app();
    s.acr.checkpoint_interval = 0.003;
    JobResult r = run(s);
    ACR_REQUIRE(r.summary.complete, "fuzz reference run must complete");
    // Live state and verified images agree in a fault-free run; digest the
    // verified images so the comparison is like-for-like.
    ACR_REQUIRE(replica_digest(*r.runtime, 0) == r.digest,
                "reference live/verified divergence");
    return r.digest;
  }();
  return cached;
}

/// A fuzz job: `app` under `scheme` with the soak heartbeats.
Scenario fuzz_job(const apps::Jacobi3DConfig& app, ResilienceScheme scheme,
                  int spares, std::uint64_t seed) {
  AcrConfig ac = soak::base_acr_config();
  ac.scheme = scheme;
  return soak::job(ac, spares, seed, app);
}

JobResult fuzz_run(ResilienceScheme scheme, std::uint64_t seed,
                   double fault_mtbf, double sdc_fraction) {
  Scenario s = fuzz_job(soak::small_app(), scheme, 16, seed);
  s.faults.arrivals = std::make_shared<failure::RenewalProcess>(
      std::make_shared<failure::Exponential>(fault_mtbf));
  s.faults.sdc_fraction = sdc_fraction;
  return run(s);
}

class FaultFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FaultFuzz, StrongSchemeNeverCommitsWrongAnswer) {
  std::uint64_t seed = 1000 + static_cast<std::uint64_t>(GetParam()) * 7919;
  // Mixed faults arriving a few times per checkpoint-interval-decade.
  JobResult o = fuzz_run(ResilienceScheme::Strong, seed,
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
    JobResult o = fuzz_run(scheme, seed, /*fault_mtbf=*/0.010,
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
  JobResult o = fuzz_run(ResilienceScheme::Strong, seed,
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

/// Smaller app than soak::small_app(): the network fuzz sweeps 200+ seeds, so
/// each run must stay cheap. 8 tasks on 4 nodes per replica.
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
  std::uint64_t digest = clean_digest(net_fuzz_app(), scheme,
                                      "net fuzz reference run must complete");
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
JobResult net_fuzz_run(ResilienceScheme scheme, std::uint64_t seed,
                       double fault_mtbf, int* monotone_violations) {
  Scenario s =
      fuzz_job(net_fuzz_app(), scheme, fault_mtbf > 0.0 ? 16 : 2, seed);
  Pcg32 rates(seed, 0x4E7F);
  failure::NetFaultConfig& nf = s.cluster.net_faults;
  nf.drop_rate = 0.05 * rates.uniform();
  nf.dup_rate = 0.03 * rates.uniform();
  nf.reorder_rate = 0.30 * rates.uniform();
  nf.corrupt_rate = 0.02 * rates.uniform();
  nf.reorder_max_extra = 5e-5 + 2e-4 * rates.uniform();
  if (fault_mtbf > 0.0) {
    s.faults.arrivals = std::make_shared<failure::RenewalProcess>(
        std::make_shared<failure::Exponential>(fault_mtbf));
    s.faults.sdc_fraction = 0.3;
  }
  std::unique_ptr<AcrRuntime> runtime = start(s);
  ProgressMonotonicitySampler sampler(*runtime, 2.5e-4);
  if (monotone_violations) sampler.start();
  JobResult out = finish(std::move(runtime), s.max_virtual_time);
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
  JobResult o = net_fuzz_run(scheme, seed, /*fault_mtbf=*/0.0, &violations);
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
  JobResult o = net_fuzz_run(ResilienceScheme::Strong, seed,
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
  std::string loss = "--net-loss=" + std::to_string(net_loss);
  const char* argv[] = {"acr_driver",       "--iterations=20",
                        "--fault-mtbf=0.01", "--sdc-fraction=1.0",
                        "--seed=8",          loss.c_str()};
  std::string error;
  std::optional<DriverFlags> flags = parse_driver_flags(6, argv, &error);
  ACR_REQUIRE(flags.has_value(), error.c_str());
  std::unique_ptr<AcrRuntime> runtime = start(flags->scenario);
  runtime->run(0.02);
  return runtime->cluster().net_counters().gated_drops;
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
