// Reed–Solomon redundancy fault soak.
//
// Property: under --ckpt-scheme=rs --rs-parity=2, killing TWO nodes per
// parity group mid-run — the correlated-burst shape that defeats a single
// parity block — is survivable in place: every
// seeded run completes with the bitwise fault-free answer and ZERO
// scratch restarts. The L2 tier rides along as the documented backstop
// for the commit→parity-exchange race (a member dying before the round
// completes leaves the survivors' parity behind their verified epoch;
// the ladder then serves an L2 fetch, never a scratch restart). The
// targeted contrast tests pin the pure-L1 story: without any tier, a
// double loss in one group rebuilds through the RS wave alone, while the
// identical schedule under single parity has to degrade.
//
// The parity-1 suite (XorSoak / XorTargeted; --ckpt-scheme=xor spells
// rs with one parity block) pins the single-loss contract: killing any
// ONE node per group mid-run completes with the bitwise fault-free
// answer. Its group rebuild may legitimately fall back to a scratch
// restart when a member dies inside the commit→parity-exchange window
// (survivor parity lags the verified epoch) and no tier is configured, so
// scratch_restarts is not asserted zero there; the bitwise answer is the
// contract.
//
// Runs under the `rs-soak` ctest label (CI runs it with ASan/UBSan).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "ckpt/group.h"
#include "common/rng.h"
#include "soak_util.h"

namespace acr {
namespace {

constexpr int kGroupSize = 4;
constexpr int kParity = 2;

AcrConfig soak_acr_config(bool tier, int parity = kParity) {
  AcrConfig ac = soak::base_acr_config();  // rs requires strong
  ac.redundancy = ckpt::Scheme::Rs;
  ac.xor_group_size = kGroupSize;
  ac.rs_parity = parity;
  if (tier) ac.tier.bandwidth = 1e9;
  return ac;
}

/// Fault-free run under the no-tier rs configuration with `parity` blocks:
/// fixes the expected answer and the nominal completion time the kill
/// schedule is drawn from (and doubles as a check that the GF(256) parity
/// exchange is harmless).
const soak::Reference& reference(int parity = kParity) {
  static std::map<int, soak::Reference> cached;
  auto it = cached.find(parity);
  if (it == cached.end())
    it = cached
             .emplace(parity, soak::make_reference(
                                  soak::small_app(),
                                  soak_acr_config(/*tier=*/false, parity),
                                  "rs soak reference run must complete"))
             .first;
  return it->second;
}

/// One soak run: for every parity group in every replica, schedule the
/// near-simultaneous death of TWO uniformly chosen members at a uniformly
/// chosen time. The window starts at 25% of the nominal run so the first
/// epoch is always durable on L2 — the "zero scratch restarts" pin is
/// about recovery routing, not about faults outrunning the first commit.
struct SoakOutcome {
  soak::Outcome out;
  int kills = 0;
};

SoakOutcome soak_run(std::uint64_t seed) {
  apps::Jacobi3DConfig j = soak::small_app();
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 16;
  cc.seed = seed;
  AcrRuntime runtime(soak_acr_config(/*tier=*/true), cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();

  ckpt::GroupMap groups(cc.nodes_per_replica, kGroupSize);
  ACR_REQUIRE(groups.enabled(), "soak requires grouping");
  Pcg32 rng(seed, 0x2505);
  SoakOutcome o;
  for (int r = 0; r < 2; ++r) {
    for (int g = 0; g < groups.num_groups(); ++g) {
      std::vector<int> members = groups.group_members(g * kGroupSize);
      // Two distinct victims per group: the shape XOR cannot absorb.
      int a = members[rng.bounded(static_cast<std::uint32_t>(members.size()))];
      int b = a;
      while (b == a)
        b = members[rng.bounded(static_cast<std::uint32_t>(members.size()))];
      double when = reference().finish_time * (0.25 + 0.70 * rng.uniform());
      double gap = 2e-4 * rng.uniform();  // second death lands mid-recovery
      for (auto [victim, at] : {std::pair{a, when}, std::pair{b, when + gap}}) {
        runtime.engine().schedule_at(at, [&runtime, r, victim] {
          if (!runtime.cluster().role_alive(r, victim)) return;
          runtime.cluster().kill_role(r, victim);
        });
        ++o.kills;
      }
    }
  }

  o.out = soak::run_and_digest(runtime);
  return o;
}

class RsSoak : public ::testing::TestWithParam<int> {};

TEST_P(RsSoak, TwoKillsPerGroupRecoverBitwiseWithoutScratch) {
  std::uint64_t seed = 240000 + static_cast<std::uint64_t>(GetParam()) * 4813;
  SoakOutcome o = soak_run(seed);
  EXPECT_EQ(o.kills, 8);  // 2 replicas x 2 groups x 2 victims
  ASSERT_TRUE(o.out.summary.complete)
      << "wedged or failed at t=" << o.out.summary.finish_time << " (seed "
      << seed << ", scratch=" << o.out.summary.scratch_restarts
      << ", waves=" << o.out.summary.l2_fetch_waves << ")";
  EXPECT_EQ(o.out.digest, reference().digest) << "seed " << seed;
  EXPECT_EQ(o.out.summary.scratch_restarts, 0u)
      << "seed " << seed << ": rs + L2 must never fall to scratch";
  EXPECT_EQ(o.out.summary.parity_rebuilds_rejected, 0u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RsSoak, ::testing::Range(0, 110));

// ---------------------------------------------------------------------------
// Targeted scenarios (no tier: the pure-L1 story).
// ---------------------------------------------------------------------------

/// Wire a no-tier runtime and kill `dead` members of replica 0's first
/// group at mid-run, `gap` apart.
soak::Outcome run_group_kill(const AcrConfig& ac,
                             const std::vector<int>& dead, double gap) {
  apps::Jacobi3DConfig j = soak::small_app();
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 8;
  cc.seed = 91;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  double mid = reference().finish_time * 0.5;
  for (std::size_t i = 0; i < dead.size(); ++i) {
    int victim = dead[i];
    runtime.engine().schedule_at(mid + gap * static_cast<double>(i),
                                 [&runtime, victim] {
                                   runtime.cluster().kill_role(0, victim);
                                 });
  }
  return soak::run_and_digest(runtime);
}

/// Two dead in one group, no tier anywhere: the RS wave alone rebuilds
/// both spares bitwise — no fetch ladder, no scratch restart.
TEST(RsTargeted, TwoDeadInOneGroupRebuildViaParityAlone) {
  soak::Outcome o =
      run_group_kill(soak_acr_config(/*tier=*/false), {1, 2}, 1e-5);
  ASSERT_TRUE(o.summary.complete) << "double loss not survived under rs";
  EXPECT_EQ(o.digest, reference().digest);
  EXPECT_EQ(o.summary.scratch_restarts, 0u);
  EXPECT_EQ(o.summary.l2_fetch_waves, 0u);
  EXPECT_GE(o.summary.xor_rebuilds, 2u) << "both spares must solve locally";
  EXPECT_GT(o.summary.parity_rebuild_pieces, 0u);
  EXPECT_GT(o.summary.parity_rebuild_bytes, 0u);
}

/// The IDENTICAL schedule under single parity (--ckpt-scheme=xor): one
/// parity block cannot cover two losses, so the manager must degrade
/// (scratch restart) — and the job still finishes with the right answer.
TEST(RsTargeted, IdenticalScheduleUnderXorDegrades) {
  soak::Outcome o =
      run_group_kill(soak_acr_config(/*tier=*/false, 1), {1, 2}, 1e-5);
  ASSERT_TRUE(o.summary.complete);
  EXPECT_EQ(o.digest, reference().digest);
  EXPECT_GE(o.summary.scratch_restarts, 1u)
      << "single parity absorbed a double loss it has no parity for";
}

/// Three dead in one group exceed m = 2: undecodable, so the manager falls
/// down the recovery ladder (scratch without a tier) and still completes.
TEST(RsTargeted, BeyondParityBudgetFallsDownTheLadder) {
  soak::Outcome o =
      run_group_kill(soak_acr_config(/*tier=*/false), {0, 1, 2}, 1e-5);
  ASSERT_TRUE(o.summary.complete) << "triple loss wedged the job";
  EXPECT_EQ(o.digest, reference().digest);
  EXPECT_GE(o.summary.scratch_restarts, 1u);
}

/// The whole recovery path — GF(256) encode, the multi-loss Gaussian
/// solve, the restore — reproduces the fault-free answer bit for bit.
TEST(RsTargeted, RebuildIsKernelThreadCountInvariant) {
  soak::Outcome o =
      run_group_kill(soak_acr_config(/*tier=*/false), {1, 3}, 1e-5);
  ASSERT_TRUE(o.summary.complete);
  EXPECT_EQ(o.digest, reference().digest);
}

// ---------------------------------------------------------------------------
// Parity-1 soak: one kill per group (--ckpt-scheme=xor = rs with m = 1).
// ---------------------------------------------------------------------------

/// Wire a no-tier parity-1 runtime with `spares` spare nodes.
struct SingleParitySim {
  SingleParitySim(std::uint64_t seed, int spares)
      : app(soak::small_app()),
        runtime(soak_acr_config(/*tier=*/false, 1), cluster_config(seed,
                                                                  spares)) {
    runtime.set_task_factory(app.factory());
    runtime.setup();
  }
  rt::ClusterConfig cluster_config(std::uint64_t seed, int spares) const {
    rt::ClusterConfig cc;
    cc.nodes_per_replica = app.nodes_needed();
    cc.spare_nodes = spares;
    cc.seed = seed;
    return cc;
  }
  void kill_at(double when, int replica, int victim) {
    runtime.engine().schedule_at(when, [this, replica, victim] {
      if (!runtime.cluster().role_alive(replica, victim)) return;
      runtime.cluster().kill_role(replica, victim);
    });
  }
  apps::Jacobi3DConfig app;
  AcrRuntime runtime;
};

/// One soak run: for every parity group in every replica, schedule the
/// death of one uniformly chosen member at a uniformly chosen time within
/// the nominal run.
SoakOutcome single_kill_soak_run(std::uint64_t seed) {
  SingleParitySim sim(seed, 16);
  ckpt::GroupMap groups(sim.app.nodes_needed(), kGroupSize);
  ACR_REQUIRE(groups.enabled(), "soak requires grouping");
  Pcg32 rng(seed, 0x50AF);
  SoakOutcome o;
  for (int r = 0; r < 2; ++r) {
    for (int g = 0; g < groups.num_groups(); ++g) {
      std::vector<int> members = groups.group_members(g * kGroupSize);
      int victim = members[rng.bounded(
          static_cast<std::uint32_t>(members.size()))];
      // Anywhere from before the first checkpoint to just shy of the end.
      sim.kill_at(reference(1).finish_time * (0.02 + 0.93 * rng.uniform()), r,
                  victim);
      ++o.kills;
    }
  }
  o.out = soak::run_and_digest(sim.runtime);
  return o;
}

class XorSoak : public ::testing::TestWithParam<int> {};

TEST_P(XorSoak, OneKillPerGroupRecoversBitwise) {
  std::uint64_t seed = 120000 + static_cast<std::uint64_t>(GetParam()) * 4813;
  SoakOutcome o = single_kill_soak_run(seed);
  EXPECT_EQ(o.kills, 4);  // 2 replicas x 2 groups
  ASSERT_TRUE(o.out.summary.complete)
      << "wedged or failed at t=" << o.out.summary.finish_time << " (seed "
      << seed << ", scratch=" << o.out.summary.scratch_restarts << ")";
  EXPECT_EQ(o.out.digest, reference(1).digest) << "seed " << seed;
  // A kill landing just before completion can legitimately go undetected
  // (the job finishes inside the heartbeat timeout), so only an upper
  // bound holds.
  EXPECT_LE(o.out.summary.hard_failures, static_cast<std::uint64_t>(o.kills))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, XorSoak, ::testing::Range(0, 110));

/// Under the partner scheme, losing both buddies of a node index forces a
/// scratch restart (neither replica holds the verified image any more).
/// Under group parity the two buddies sit in *different* groups (one per
/// replica), so both rebuild independently from their group peers.
TEST(XorTargeted, BuddyPairLossIsSurvivable) {
  SingleParitySim sim(77, 8);
  double mid = reference(1).finish_time * 0.5;
  sim.kill_at(mid, 0, 3);
  sim.kill_at(mid * 1.2, 1, 3);
  soak::Outcome o = soak::run_and_digest(sim.runtime);
  ASSERT_TRUE(o.summary.complete) << "buddy-pair loss not survived";
  EXPECT_EQ(o.digest, reference(1).digest);
  EXPECT_GT(o.summary.parity_chunks_sent, 0u) << "parity exchange never ran";
  EXPECT_GE(o.summary.xor_rebuilds, 1u);
}

/// Two dead members in the *same* group exceed single-parity coverage; the
/// manager must fall back to a scratch restart — and the job must still
/// finish with the right answer.
TEST(XorTargeted, TwoDeadInOneGroupFallsBackToScratch) {
  SingleParitySim sim(78, 8);
  double mid = reference(1).finish_time * 0.5;
  // Same group (indices 0..3 of replica 0), near-simultaneous deaths: the
  // second falls while the first group rebuild is still in flight.
  sim.kill_at(mid, 0, 1);
  sim.kill_at(mid + 1e-5, 0, 2);
  soak::Outcome o = soak::run_and_digest(sim.runtime);
  ASSERT_TRUE(o.summary.complete) << "double-death in one group wedged the job";
  EXPECT_EQ(o.digest, reference(1).digest);
}

/// The local scheme keeps no cross-node redundancy at all: any hard failure
/// after the first commit still completes, but only ever by scratch restart.
TEST(XorTargeted, LocalSchemeRecoversOnlyFromScratch) {
  apps::Jacobi3DConfig j = soak::small_app();
  AcrConfig ac = soak::base_acr_config();
  ac.redundancy = ckpt::Scheme::Local;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = j.nodes_needed();
  cc.spare_nodes = 8;
  cc.seed = 79;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(j.factory());
  runtime.setup();
  double mid = reference(1).finish_time * 0.5;
  runtime.engine().schedule_at(mid, [&runtime] {
    runtime.cluster().kill_role(0, 5);
  });
  soak::Outcome o = soak::run_and_digest(runtime);
  ASSERT_TRUE(o.summary.complete);
  EXPECT_EQ(o.summary.scratch_restarts, 1u);
  EXPECT_EQ(o.summary.xor_rebuilds, 0u);
  EXPECT_EQ(o.digest, reference(1).digest);
}

}  // namespace
}  // namespace acr
