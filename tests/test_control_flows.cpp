// Fig. 5 control-flow tests: trace-level assertions that each scheme's
// recovery follows the paper's event sequence, not merely that it ends in
// the right state.
#include <gtest/gtest.h>

#include <memory>

#include "acr/runtime.h"
#include "acr/stats.h"
#include "apps/jacobi3d.h"
#include "soak_util.h"

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
  run.runtime->inject(failure::Fault::kill_role(kill_at, 1, 1));
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

// A rollback that reaches a live node holding no checkpoint (its store was
// wiped) makes the node ask the manager for a recovery image under the
// active barrier (kNeedBuddyRestore). Node (0,6) loses its store at the
// moment node (0,1) dies, so the buddy-restore / group-rebuild wave for
// (0,1) orders (0,6) to roll back and the manager must route it an image:
// the buddy's verified copy under partner, a group rebuild under rs(2).
// The local scheme has no remote copy, so its kill goes straight to a
// scratch restart and never reaches this handler; it is not a case here.
class NeedBuddyRestore : public ::testing::TestWithParam<ckpt::Scheme> {};

TEST_P(NeedBuddyRestore, CheckpointlessRollbackIsRoutedAnImage) {
  apps::Jacobi3DConfig j = soak::small_app();
  AcrConfig ac = soak::base_acr_config();
  ac.redundancy = GetParam();
  if (ac.redundancy == ckpt::Scheme::Rs) {
    ac.xor_group_size = 4;
    ac.rs_parity = 2;
  }
  soak::Reference ref =
      soak::make_reference(j, ac, "reference run must complete");
  soak::Sim sim(ac, 4);
  AcrRuntime& runtime = sim.runtime;
  double at = ref.finish_time * 0.4;
  runtime.engine().schedule_at(
      at, [&runtime] { runtime.agent_at(0, 6).reset_for_restart(); });
  runtime.inject(failure::Fault::kill_role(at, 0, 1));
  soak::Outcome o = soak::run_and_digest(runtime);
  ASSERT_TRUE(o.summary.complete) << "checkpoint-less rollback wedged";
  EXPECT_EQ(o.digest, ref.digest);
  EXPECT_EQ(o.summary.recoveries, 1u);
  EXPECT_EQ(o.summary.scratch_restarts, 0u);
}

INSTANTIATE_TEST_SUITE_P(Redundancy, NeedBuddyRestore,
                         ::testing::Values(ckpt::Scheme::Partner,
                                           ckpt::Scheme::Rs),
                         [](const auto& info) {
                           return std::string(ckpt::scheme_name(info.param));
                         });

// Every restore is admitted by one rule: its barrier must be above the
// agent's restore floor. Each case raises one live agent's floor to B
// mid-run, then delivers a restore at barrier B from one image source. The
// agent must drop it, and the run must finish as if it never arrived. Were
// the rule or a gate before it missing, the agent would gate itself
// waiting on a wave the manager never opened, and the run would wedge.
enum class RestoreSource { Rollback, Buddy, Fetch };

class RestoreAdmission : public ::testing::TestWithParam<RestoreSource> {};

TEST_P(RestoreAdmission, StaleWaveIsDropped) {
  constexpr std::uint64_t kFloor = 1;
  constexpr int kReplica = 1;
  constexpr int kIndex = 3;
  const RestoreSource source = GetParam();
  apps::Jacobi3DConfig j = soak::small_app();
  AcrConfig ac = soak::base_acr_config();
  if (source == RestoreSource::Fetch) ac.tier.bandwidth = 2e9;
  soak::Reference ref =
      soak::make_reference(j, ac, "reference run must complete");
  soak::Sim sim(ac, 2);
  AcrRuntime& runtime = sim.runtime;
  // The rollback lands before the first commit, so the target holds no
  // verified image and would take the checkpoint-less branch (gate itself,
  // ask the manager for an image). The other sources need a committed
  // image to ship or fetch.
  double at = source == RestoreSource::Rollback
                  ? ac.checkpoint_interval * 0.5
                  : ref.finish_time * 0.5;
  runtime.engine().schedule_at(at, [&runtime, source] {
    NodeAgent& agent = runtime.agent_at(kReplica, kIndex);
    agent.quash_restores_through(kFloor);
    rt::Cluster& cluster = runtime.cluster();
    switch (source) {
      case RestoreSource::Rollback: {
        EXPECT_FALSE(agent.has_verified());
        wire::RestoreCmdMsg cmd{0, kFloor};
        cluster.send_from_manager(kReplica, kIndex, wire::kRollback,
                                  rt::pack_payload(cmd));
        return;
      }
      case RestoreSource::Buddy: {
        ASSERT_TRUE(agent.has_verified());
        const ckpt::Image& img = agent.store().verified();
        wire::CheckpointMsg msg{img.epoch, img.iteration, /*purpose=*/1,
                                kFloor};
        cluster.send_service(1 - kReplica, kIndex, kReplica, kIndex,
                             wire::kBuddyCheckpoint, rt::pack_payload(msg),
                             static_cast<double>(img.image.size()),
                             img.image.buffer());
        return;
      }
      case RestoreSource::Fetch: {
        std::uint64_t epoch = runtime.tier()->newest_complete_epoch();
        ASSERT_GT(epoch, 0u);
        wire::RestoreCmdMsg cmd{epoch, kFloor};
        cluster.send_from_manager(kReplica, kIndex, wire::kFetchFromDurable,
                                  rt::pack_payload(cmd));
        return;
      }
    }
  });
  soak::Outcome o = soak::run_and_digest(runtime, ref.finish_time * 4);
  ASSERT_TRUE(o.summary.complete) << "a stale restore wedged the run";
  EXPECT_EQ(o.digest, ref.digest);
  EXPECT_EQ(o.summary.recoveries, 0u);
  EXPECT_EQ(o.summary.l2_fetch_waves, 0u);
}

INSTANTIATE_TEST_SUITE_P(Source, RestoreAdmission,
                         ::testing::Values(RestoreSource::Rollback,
                                           RestoreSource::Buddy,
                                           RestoreSource::Fetch),
                         [](const auto& info) -> std::string {
                           switch (info.param) {
                             case RestoreSource::Rollback: return "rollback";
                             case RestoreSource::Buddy: return "buddy";
                             case RestoreSource::Fetch: return "fetch";
                           }
                           return "";
                         });

// ---------------------------------------------------------------------------
// Fault entry (DESIGN §13): every fault lands through AcrRuntime::apply.
// ---------------------------------------------------------------------------

TEST(FaultPath, ScriptedFaultsRecordOneInjectionEach) {
  soak::Sim sim(soak::base_acr_config(), 4, 1);
  Pcg32 draws(7);
  sim.runtime.inject(failure::Fault::kill_role(0.010, 0, 1));
  sim.runtime.inject(failure::Fault::flip(0.020, 0, 6, 1, draws));
  sim.runtime.inject(failure::Fault::kill_role(0.030, 1, 5));
  RunSummary s = sim.runtime.run(100.0);
  ASSERT_TRUE(s.complete);
  TraceSummary ts = summarize_trace(sim.runtime.trace());
  EXPECT_EQ(ts.failures_injected, 2u);
  EXPECT_EQ(sim.runtime.trace().count(rt::TraceKind::SdcInjected), 1u);
  EXPECT_EQ(s.sdc_injected, 1u);
  EXPECT_EQ(s.hard_failures, 2u);
}

TEST(FaultPath, RandomKillsRecordOneInjectionPerVictim) {
  soak::Sim sim(soak::base_acr_config(), 16, 1);
  FaultPlan plan;
  plan.arrivals = std::make_shared<failure::RenewalProcess>(
      std::make_shared<failure::Exponential>(0.004));
  plan.sdc_fraction = 0.0;
  plan.horizon = 0.04;
  sim.runtime.set_fault_plan(plan);
  RunSummary s = sim.runtime.run(100.0);
  ASSERT_TRUE(s.complete);
  // Nothing repairs a --fault-mtbf death and no role is doubled, so every
  // landed kill leaves exactly one dead machine behind.
  rt::Cluster& cl = sim.runtime.cluster();
  std::size_t dead = 0;
  for (int pid = 0; pid < cl.num_hardware_nodes(); ++pid)
    if (!cl.physical_node(pid).alive()) ++dead;
  EXPECT_GE(dead, 3u);
  EXPECT_EQ(summarize_trace(sim.runtime.trace()).failures_injected, dead);
}

TEST(FaultPath, DeadTargetOrFinishedJobIsANoOp) {
  soak::Sim sim(soak::base_acr_config(), 4, 1);
  AcrRuntime& rt_ = sim.runtime;
  Pcg32 draws(7);
  bool first = false, again = true, dead_flip = true;
  rt_.engine().schedule_at(0.010, [&] {
    first = rt_.apply(failure::Fault::kill_role(0.010, 1, 1));
    again = rt_.apply(failure::Fault::kill_role(0.010, 1, 1));
    dead_flip = rt_.apply(failure::Fault::flip(0.010, 1, 1, 0, draws));
  });
  RunSummary s = rt_.run(100.0);
  ASSERT_TRUE(s.complete);
  EXPECT_TRUE(first);
  EXPECT_FALSE(again);
  EXPECT_FALSE(dead_flip);
  EXPECT_EQ(rt_.trace().count(rt::TraceKind::HardFailureInjected), 1u);
  EXPECT_EQ(rt_.trace().count(rt::TraceKind::SdcInjected), 0u);

  std::size_t events = rt_.trace().events().size();
  double now = rt_.engine().now();
  EXPECT_FALSE(rt_.apply(failure::Fault::kill_role(now, 0, 0)));
  EXPECT_FALSE(rt_.apply(failure::Fault::flip(now, 0, 2, 0, draws)));
  EXPECT_TRUE(rt_.cluster().role_alive(0, 0));
  EXPECT_EQ(rt_.trace().events().size(), events);
}

TEST(FaultPath, PooledSpareDeathReachesTheOutOfBandFeed) {
  AcrConfig ac = soak::base_acr_config();
  ac.adaptive = true;
  ac.adaptive_config.checkpoint_cost = ac.checkpoint_interval / 20.0;
  ac.adaptive_config.min_interval = ac.checkpoint_interval / 4.0;
  ac.adaptive_config.max_interval = ac.checkpoint_interval * 8.0;
  soak::Sim sim(ac, 2, 1);
  AcrRuntime& rt_ = sim.runtime;
  int spare = -1;
  for (int pid = 0; pid < rt_.cluster().num_hardware_nodes(); ++pid)
    if (rt_.cluster().is_pooled_spare(pid)) spare = pid;
  ASSERT_GE(spare, 0);
  double before = 0.0, after = 0.0;
  bool landed = false;
  rt_.engine().schedule_at(0.010, [&] {
    before = rt_.manager().current_interval();
    landed = rt_.apply(failure::Fault::kill_hardware(0.010, spare, "seed"));
    after = rt_.manager().current_interval();
  });
  RunSummary s = rt_.run(100.0);
  ASSERT_TRUE(s.complete);
  EXPECT_TRUE(landed);
  // No role died, so heartbeats saw nothing: only the out-of-band notice
  // can have moved the adaptive interval off its ceiling.
  EXPECT_EQ(s.hard_failures, 0u);
  EXPECT_EQ(s.spare_failures, 1u);
  EXPECT_EQ(s.burst_node_kills, 1u);
  EXPECT_EQ(before, ac.adaptive_config.max_interval);
  EXPECT_LT(after, before);
}

}  // namespace
}  // namespace acr
