// Durable-tier (L2) tests: the recovery ladder (L1 rebuild preferred over
// L2 fetch preferred over scratch restart), flush atomicity (a node that
// dies mid-flush publishes nothing; a partially-flushed epoch is never
// fetchable), the --halt-after drain flow, and the analytic tier model
// against the simulator's own counters.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "checksum/fletcher.h"
#include "ckpt/tier.h"
#include "model/acr_model.h"

namespace acr {
namespace {

apps::Jacobi3DConfig tier_app() {
  apps::Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = 2;
  cfg.tasks_z = 4;
  cfg.block_x = cfg.block_y = cfg.block_z = 4;
  cfg.iterations = 40;
  cfg.slots_per_node = 2;  // 8 nodes per replica
  cfg.seconds_per_point = 1e-5;
  return cfg;
}

AcrConfig tier_acr_config(double bandwidth = 1e9) {
  AcrConfig ac;
  ac.scheme = ResilienceScheme::Strong;
  ac.redundancy = ckpt::Scheme::Partner;
  ac.checkpoint_interval = 0.003;
  ac.heartbeat_period = 0.0004;
  ac.heartbeat_timeout = 0.0016;
  ac.tier.bandwidth = bandwidth;
  return ac;
}

std::uint64_t verified_digest(AcrRuntime& runtime) {
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
};

/// Fault-free single-tier run fixing the expected answer and duration.
const Reference& reference() {
  static Reference cached = [] {
    apps::Jacobi3DConfig j = tier_app();
    rt::ClusterConfig cc;
    cc.nodes_per_replica = j.nodes_needed();
    cc.spare_nodes = 0;
    AcrRuntime runtime(tier_acr_config(/*bandwidth=*/0.0), cc);
    runtime.set_task_factory(j.factory());
    runtime.setup();
    RunSummary s = runtime.run(1e3);
    ACR_REQUIRE(s.complete, "tier reference run must complete");
    Reference ref;
    ref.digest = verified_digest(runtime);
    ref.finish_time = s.finish_time;
    return ref;
  }();
  return cached;
}

struct Sim {
  apps::Jacobi3DConfig app;
  AcrRuntime runtime;
  Sim(const AcrConfig& ac, int spares, std::uint64_t seed)
      : app(tier_app()), runtime(ac, [&] {
          rt::ClusterConfig cc;
          cc.nodes_per_replica = tier_app().nodes_needed();
          cc.spare_nodes = spares;
          cc.seed = seed;
          return cc;
        }()) {
    runtime.set_task_factory(app.factory());
    runtime.setup();
  }
};

bool trace_contains(AcrRuntime& runtime, rt::TraceKind kind,
                    const std::string& detail_substr = "") {
  for (const auto& e : runtime.trace().events()) {
    if (e.kind != kind) continue;
    if (detail_substr.empty() ||
        e.detail.find(detail_substr) != std::string::npos)
      return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Flush basics and the no-tier control.
// ---------------------------------------------------------------------------

TEST(TierFlush, FaultFreeRunFlushesEveryEpochAndMatchesReference) {
  // Same seed with and without the tier: the async flush must ride
  // underneath the protocol without perturbing the app timeline at all.
  Sim control(tier_acr_config(/*bandwidth=*/0.0), 0, 7);
  RunSummary c = control.runtime.run(30.0);
  ASSERT_TRUE(c.complete);
  EXPECT_EQ(control.runtime.tier(), nullptr);
  EXPECT_EQ(c.l2_flushes, 0u);
  EXPECT_EQ(c.l2_newest_durable, 0u);

  Sim sim(tier_acr_config(), 0, 7);
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete);
  EXPECT_EQ(s.finish_time, c.finish_time)
      << "an enabled but unused tier must not perturb the app timeline";
  EXPECT_EQ(s.checkpoints, c.checkpoints);
  // Every committed epoch drains — 2 replicas x 8 roles each — except the
  // final-verification epoch, which ends the job instead of flushing.
  EXPECT_EQ(s.l2_flushes, (s.checkpoints - 1) * 16u);
  EXPECT_GT(s.l2_flush_bytes, 0u);
  EXPECT_EQ(s.l2_fetches, 0u);
  EXPECT_EQ(s.l2_fetch_waves, 0u);
  EXPECT_EQ(s.l2_newest_durable, s.checkpoints - 1);
  sim.runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(verified_digest(sim.runtime), reference().digest);
}

TEST(TierFlush, FlushIntervalSkipsEpochs) {
  AcrConfig ac = tier_acr_config();
  ac.tier.flush_interval = 3;
  Sim sim(ac, 0, 7);
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete);
  EXPECT_LT(s.l2_flushes, s.checkpoints * 16u);
  EXPECT_GT(s.l2_flushes, 0u);
  // The newest durable epoch is a multiple of the flush interval.
  EXPECT_EQ(s.l2_newest_durable % 3u, 0u);
}

// ---------------------------------------------------------------------------
// Recovery ladder rung 1: an L1-recoverable failure never touches L2.
// ---------------------------------------------------------------------------

TEST(TierLadder, SingleFailureUsesL1NotL2) {
  Sim sim(tier_acr_config(), 4, 11);
  double mid = reference().finish_time * 0.5;
  sim.runtime.engine().schedule_at(
      mid, [&sim] { sim.runtime.cluster().kill_role(0, 3); });
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete);
  EXPECT_GE(s.recoveries, 1u);          // partner copy handled it
  EXPECT_EQ(s.l2_fetch_waves, 0u);      // L2 never consulted
  EXPECT_EQ(s.l2_fetches, 0u);
  EXPECT_EQ(s.scratch_restarts, 0u);
  sim.runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(verified_digest(sim.runtime), reference().digest);
}

// ---------------------------------------------------------------------------
// Rung 2: L1-impossible loss is served from L2, not from scratch.
// ---------------------------------------------------------------------------

TEST(TierLadder, BuddyPairLossFetchesFromDurableInsteadOfScratch) {
  Sim sim(tier_acr_config(), 4, 31);
  double mid = reference().finish_time * 0.5;
  sim.runtime.engine().schedule_at(mid, [&sim] {
    sim.runtime.cluster().kill_role(0, 4);
    sim.runtime.cluster().kill_role(1, 4);
  });
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete) << "buddy-pair loss wedged the job";
  EXPECT_EQ(s.scratch_restarts, 0u)
      << "a flushed epoch existed; the ladder must fetch, not restart";
  EXPECT_GE(s.l2_fetch_waves, 1u);
  EXPECT_EQ(s.l2_fetches, 16u * s.l2_fetch_waves);
  EXPECT_TRUE(trace_contains(sim.runtime, rt::TraceKind::FetchCompleted));
  sim.runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(verified_digest(sim.runtime), reference().digest);
  // The fetch rolled back less work than a scratch restart would have:
  // with the newest epoch durable the job must beat restart-from-zero,
  // which costs at least another full reference duration after mid-run.
  EXPECT_LT(s.finish_time, mid + reference().finish_time);
}

TEST(TierLadder, BuddyPairLossBeforeAnyFlushFallsBackToScratch) {
  // Slow the tier so no epoch completes its flush before the kill: the
  // fetch rung finds nothing durable and degrades to a genuine scratch.
  AcrConfig ac = tier_acr_config(/*bandwidth=*/10.0);  // ~7 min per image
  Sim sim(ac, 4, 31);
  double early = reference().finish_time * 0.2;
  sim.runtime.engine().schedule_at(early, [&sim] {
    sim.runtime.cluster().kill_role(0, 4);
    sim.runtime.cluster().kill_role(1, 4);
  });
  RunSummary s = sim.runtime.run(60.0);
  ASSERT_TRUE(s.complete);
  EXPECT_GE(s.scratch_restarts, 1u);
  EXPECT_EQ(s.l2_fetch_waves, 0u);
  sim.runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(verified_digest(sim.runtime), reference().digest);
}

// ---------------------------------------------------------------------------
// Flush atomicity: partial epochs are invisible.
// ---------------------------------------------------------------------------

TEST(TierAtomicity, PartialEpochIsNotFetchable) {
  // Unit-level contract behind the ladder: an epoch becomes fetchable only
  // once EVERY role of EVERY replica has published it.
  ckpt::DurableTier tier(2, 2);
  ckpt::StoredImage img;
  img.epoch = 1;
  img.iteration = 10;
  img.image = pup::Checkpoint(std::vector<std::byte>(64, std::byte{0x5A}));
  for (int r = 0; r < 2; ++r)
    for (int i = 0; i < 2; ++i) tier.publish(r, i, img);
  EXPECT_EQ(tier.newest_complete_epoch(), 1u);
  img.epoch = 2;
  tier.publish(0, 0, img);
  tier.publish(0, 1, img);
  tier.publish(1, 0, img);  // (1,1) missing: epoch 2 incomplete
  EXPECT_EQ(tier.newest_complete_epoch(), 1u)
      << "a partially-flushed epoch must fall back to the previous one";
  tier.publish(1, 1, img);
  EXPECT_EQ(tier.newest_complete_epoch(), 2u);
}

TEST(TierAtomicity, MidFlushDeathPublishesNothing) {
  // Bandwidth low enough that a flush spans many checkpoint periods; kill
  // one node while its flush is in flight and verify the tier holds no
  // blob for it — there is no half-written L2 image.
  AcrConfig ac = tier_acr_config(/*bandwidth=*/2e4);  // ~0.2 s per image
  Sim sim(ac, 4, 13);
  const int victim = 5;
  double first_commit = 0.004;  // just past the first checkpoint commit
  sim.runtime.engine().schedule_at(first_commit + 0.02, [&sim] {
    ASSERT_TRUE(sim.runtime.agent_at(0, victim).flush_active())
        << "test premise: the victim must be mid-flush when killed";
    sim.runtime.cluster().kill_role(0, victim);
  });
  sim.runtime.engine().schedule_at(first_commit + 0.021, [&sim] {
    ckpt::DurableTier* tier = sim.runtime.tier();
    ASSERT_NE(tier, nullptr);
    for (std::uint64_t e : tier->epochs_present())
      EXPECT_FALSE(tier->has(0, victim, e))
          << "dead role published epoch " << e << " mid-flush";
  });
  RunSummary s = sim.runtime.run(60.0);
  ASSERT_TRUE(s.complete);
  sim.runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(verified_digest(sim.runtime), reference().digest);
}

// ---------------------------------------------------------------------------
// Drain (--halt-after): scavenge the newest epoch, then stop.
// ---------------------------------------------------------------------------

TEST(TierDrain, HaltAfterDrainsNewestEpochAndStops) {
  AcrConfig ac = tier_acr_config();
  ac.halt_after = reference().finish_time * 0.4;
  Sim sim(ac, 0, 7);
  RunSummary s = sim.runtime.run(30.0);
  EXPECT_FALSE(s.complete);
  EXPECT_FALSE(s.failed);
  EXPECT_TRUE(s.drained);
  EXPECT_GT(s.l2_newest_durable, 0u);
  EXPECT_TRUE(trace_contains(sim.runtime, rt::TraceKind::DrainCompleted));
  // Everything verified made it to L2.
  ckpt::DurableTier* tier = sim.runtime.tier();
  ASSERT_NE(tier, nullptr);
  EXPECT_EQ(tier->newest_complete_epoch(), s.l2_newest_durable);
}

TEST(TierDrain, DrainWithLaggingFlushesScavenges) {
  // Flush every 4th epoch so the drain moment almost surely finds the
  // newest verified epoch not yet durable and must push urgent flushes.
  AcrConfig ac = tier_acr_config();
  ac.tier.flush_interval = 4;
  ac.halt_after = reference().finish_time * 0.45;
  Sim sim(ac, 0, 7);
  RunSummary s = sim.runtime.run(30.0);
  EXPECT_TRUE(s.drained);
  EXPECT_GT(s.l2_scavenges, 0u);
  EXPECT_TRUE(trace_contains(sim.runtime, rt::TraceKind::DrainRequested));
  EXPECT_TRUE(trace_contains(sim.runtime, rt::TraceKind::DrainCompleted));
}

// ---------------------------------------------------------------------------
// Determinism: the flush/fetch pipeline restores the fault-free answer (the
// L2 cost model is pure arithmetic under the DES).
// ---------------------------------------------------------------------------

TEST(TierDeterminism, FetchPathIdenticalAcrossKernelThreads) {
  Sim sim(tier_acr_config(), 4, 31);
  double mid = reference().finish_time * 0.5;
  sim.runtime.engine().schedule_at(mid, [&sim] {
    sim.runtime.cluster().kill_role(0, 4);
    sim.runtime.cluster().kill_role(1, 4);
  });
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete);
  EXPECT_GE(s.l2_fetch_waves, 1u);
  EXPECT_GE(s.l2_flushes, 1u);
  sim.runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(verified_digest(sim.runtime), reference().digest);
}

// ---------------------------------------------------------------------------
// Analytic tier model vs the simulator (fig7-style tolerance).
// ---------------------------------------------------------------------------

TEST(TierModel, SimulatedFetchReworkWithinModelEnvelope) {
  // One catastrophic (buddy-pair) event mid-run. The model says the event
  // costs fetch_cost + lag/2 of rework; the simulator's cost is the
  // difference between the faulted and fault-free finish times. The two
  // must agree within a fig7-style factor-of-two envelope (the model is
  // first-order: it ignores heartbeat detection latency and barriers).
  Sim sim(tier_acr_config(), 4, 31);
  double mid = reference().finish_time * 0.5;
  sim.runtime.engine().schedule_at(mid, [&sim] {
    sim.runtime.cluster().kill_role(0, 4);
    sim.runtime.cluster().kill_role(1, 4);
  });
  RunSummary s = sim.runtime.run(30.0);
  ASSERT_TRUE(s.complete);
  ASSERT_GE(s.l2_fetch_waves, 1u);
  double sim_cost = s.finish_time - reference().finish_time;

  const AcrConfig& ac = sim.runtime.config();
  double tau = ac.checkpoint_interval;
  // Fetch price actually charged by the DES: one L2 read per role image.
  double blob = static_cast<double>(s.l2_flush_bytes) /
                static_cast<double>(s.l2_flushes);
  double fetch_cost = ac.tier.latency + blob / ac.tier.bandwidth;
  // Model's per-event rework: fetch + up to one flush window of redone
  // progress (expected half, bounded by a full window).
  double lag = static_cast<double>(ac.tier.flush_interval) * tau;
  double lo = fetch_cost;              // rolled back almost nothing
  double hi = 2.0 * (fetch_cost + lag) + 0.01;  // detection + barriers slack
  EXPECT_GE(sim_cost, lo * 0.5);
  EXPECT_LE(sim_cost, hi)
      << "sim rework " << sim_cost << " outside model envelope [" << lo * 0.5
      << ", " << hi << "]";
}

TEST(TierModel, TieredModelPrefersFetchOverScratch) {
  model::SystemParams p;
  p.work = 120.0 * 3600.0;
  p.checkpoint_cost = 30.0;
  p.restart_hard = 30.0;
  p.restart_sdc = 30.0;
  p.socket_mtbf_hard = 50.0 * 365.25 * 86400.0;
  p.sdc_fit_per_socket = 100.0;
  p.sockets_per_replica = 32768;
  model::AcrModel m(p);

  model::TierParams tier;
  tier.flush_interval = 1;
  tier.fetch_cost = 120.0;
  tier.catastrophic_mtbf = 24.0 * 3600.0;  // one L1-defeating event per day
  model::TieredEvaluation e =
      m.evaluate_tiered(model::Scheme::Strong, tier);
  ASSERT_FALSE(std::isinf(e.total_time));
  // Fetching the newest flushed epoch strictly beats losing all progress.
  EXPECT_GT(e.speedup, 1.0);
  EXPECT_GT(e.total_time, e.base.total_time);  // the tier is not free
  // Rarer flushes lengthen the rollback and erode the win.
  model::TierParams sparse = tier;
  sparse.flush_interval = 16;
  model::TieredEvaluation e16 =
      m.evaluate_tiered(model::Scheme::Strong, sparse);
  EXPECT_GT(e16.flush_lag, e.flush_lag);
  EXPECT_GT(e16.total_time, e.total_time);
  // No catastrophes: the tiered model degenerates to the single-tier one.
  model::TierParams none = tier;
  none.catastrophic_mtbf = 0.0;
  model::TieredEvaluation e0 =
      m.evaluate_tiered(model::Scheme::Strong, none);
  EXPECT_DOUBLE_EQ(e0.total_time, e0.base.total_time);
  EXPECT_DOUBLE_EQ(e0.rework_catastrophic, 0.0);
}

}  // namespace
}  // namespace acr
