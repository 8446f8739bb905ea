// Mini-application tests: every app runs under full ACR protection with
// its real communication pattern (halo exchange, butterfly allreduce,
// migration), replicas stay bit-identical, PUP round-trips, physics sanity,
// and failure recovery reproduces the failure-free result.
#include <gtest/gtest.h>

#include "acr/runtime.h"
#include "apps/hpccg.h"
#include "apps/jacobi3d.h"
#include "apps/leanmd.h"
#include "apps/minilulesh.h"
#include "apps/minimd.h"
#include "apps/table2.h"
#include "checksum/fletcher.h"

namespace acr::apps {
namespace {

AcrConfig fast_acr() {
  AcrConfig cfg;
  cfg.checkpoint_interval = 0.004;
  cfg.heartbeat_period = 0.0005;
  cfg.heartbeat_timeout = 0.002;
  return cfg;
}

std::uint64_t replica_digest(AcrRuntime& runtime, int replica) {
  checksum::Fletcher64 f;
  for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i) {
    pup::Checkpoint c = runtime.cluster().node_at(replica, i).pack_state();
    f.append(c.bytes());
  }
  return f.digest();
}

struct AppCase {
  const char* name;
  rt::Cluster::TaskFactory factory;
  int nodes_per_replica;
};

AppCase make_case(int which) {
  switch (which) {
    case 0: {
      Jacobi3DConfig cfg;
      cfg.tasks_x = cfg.tasks_y = cfg.tasks_z = 2;
      cfg.block_x = cfg.block_y = cfg.block_z = 4;
      cfg.iterations = 16;
      cfg.slots_per_node = 2;
      cfg.seconds_per_point = 1e-5;
      return {"Jacobi3D-charm", cfg.factory(), cfg.nodes_needed()};
    }
    case 1: {
      Jacobi3DConfig cfg;  // AMPI flavour: one rank-task per node
      cfg.tasks_x = cfg.tasks_y = 2;
      cfg.tasks_z = 1;
      cfg.block_x = cfg.block_y = cfg.block_z = 4;
      cfg.iterations = 16;
      cfg.slots_per_node = 1;
      cfg.seconds_per_point = 1e-5;
      return {"Jacobi3D-ampi", cfg.factory(), cfg.nodes_needed()};
    }
    case 2: {
      HpccgConfig cfg;
      cfg.nx = cfg.ny = cfg.nz = 6;
      cfg.num_tasks = 4;
      cfg.iterations = 12;
      cfg.seconds_per_flop = 1e-7;
      return {"HPCCG", cfg.factory(), cfg.nodes_needed()};
    }
    case 3: {
      MiniLuleshConfig cfg;
      cfg.ex = cfg.ey = cfg.ez = 5;
      cfg.num_tasks = 4;
      cfg.iterations = 12;
      cfg.seconds_per_element = 2e-5;
      return {"MiniLulesh", cfg.factory(), cfg.nodes_needed()};
    }
    case 4: {
      LeanMdConfig cfg;
      cfg.atoms_per_task = 32;
      cfg.num_tasks = 4;
      cfg.slots_per_node = 2;
      cfg.iterations = 12;
      cfg.seconds_per_pair = 1e-5;
      return {"LeanMD", cfg.factory(), cfg.nodes_needed()};
    }
    default: {
      MiniMdConfig cfg;
      cfg.atoms_per_task = 32;
      cfg.num_tasks = 4;
      cfg.iterations = 12;
      cfg.seconds_per_pair = 1e-5;
      return {"miniMD", cfg.factory(), cfg.nodes_needed()};
    }
  }
}

class EveryApp : public ::testing::TestWithParam<int> {};

TEST_P(EveryApp, RunsUnderAcrWithIdenticalReplicas) {
  AppCase app = make_case(GetParam());
  rt::ClusterConfig cc;
  cc.nodes_per_replica = app.nodes_per_replica;
  cc.spare_nodes = 1;
  AcrRuntime runtime(fast_acr(), cc);
  runtime.set_task_factory(app.factory);
  runtime.setup();
  RunSummary s = runtime.run(100.0);
  ASSERT_TRUE(s.complete) << app.name;
  EXPECT_FALSE(s.failed);
  EXPECT_GT(s.checkpoints, 0u) << app.name;
  EXPECT_EQ(s.sdc_detected, 0u) << app.name
      << ": replicas diverged in a fault-free run (nondeterminism!)";
  runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(replica_digest(runtime, 0), replica_digest(runtime, 1))
      << app.name;
}

TEST_P(EveryApp, SurvivesHardFailure) {
  AppCase app = make_case(GetParam());
  rt::ClusterConfig cc;
  cc.nodes_per_replica = app.nodes_per_replica;
  cc.spare_nodes = 2;

  std::uint64_t reference;
  {
    AcrRuntime runtime(fast_acr(), cc);
    runtime.set_task_factory(app.factory);
    runtime.setup();
    RunSummary s = runtime.run(100.0);
    ASSERT_TRUE(s.complete);
    runtime.engine().run_until(s.finish_time + 0.05);
    reference = replica_digest(runtime, 0);
  }
  AcrRuntime runtime(fast_acr(), cc);
  runtime.set_task_factory(app.factory);
  runtime.setup();
  int victim = app.nodes_per_replica - 1;
  runtime.inject(failure::Fault::kill_role(0.006, 1, victim));
  RunSummary s = runtime.run(100.0);
  ASSERT_TRUE(s.complete) << app.name;
  EXPECT_EQ(s.recoveries, 1u);
  runtime.engine().run_until(s.finish_time + 0.1);
  EXPECT_EQ(replica_digest(runtime, 0), reference) << app.name;
  EXPECT_EQ(replica_digest(runtime, 1), reference) << app.name;
}

INSTANTIATE_TEST_SUITE_P(All, EveryApp, ::testing::Range(0, 6),
                         [](const auto& info) {
                           std::string n = make_case(info.param).name;
                           std::erase(n, '-');
                           return n;
                         });

// ---------------------------------------------------------------------------
// App-specific physics / semantics.
// ---------------------------------------------------------------------------

template <typename TaskT>
std::vector<TaskT*> run_app_collect(AcrRuntime& runtime) {
  std::vector<TaskT*> tasks;
  for (int i = 0; i < runtime.cluster().nodes_per_replica(); ++i) {
    rt::Node& n = runtime.cluster().node_at(0, i);
    for (int s = 0; s < n.num_tasks(); ++s)
      tasks.push_back(static_cast<TaskT*>(&n.task(s)));
  }
  return tasks;
}

TEST(Hpccg, ResidualDecreasesMonotonically) {
  HpccgConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = 6;
  cfg.num_tasks = 4;
  cfg.iterations = 10;
  cfg.seconds_per_flop = 1e-7;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = cfg.nodes_needed();
  cc.spare_nodes = 0;
  AcrConfig ac = fast_acr();
  ac.periodic_checkpoints = false;
  ac.scheme = ResilienceScheme::Strong;
  ac.periodic_checkpoints = true;
  ac.checkpoint_interval = 1e6;  // effectively none; pure solve
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(cfg.factory());
  runtime.setup();
  RunSummary s = runtime.run(100.0);
  ASSERT_TRUE(s.complete);
  auto tasks = run_app_collect<HpccgTask>(runtime);
  // CG on an SPD operator: after 10 iterations the residual should have
  // dropped dramatically from ||b||^2 (b has entries up to 27).
  // The initial residual ||b||^2 is in the thousands; 10 CG steps on this
  // well-conditioned operator shrink it by over five orders of magnitude.
  for (auto* t : tasks) {
    EXPECT_GT(t->residual_norm(), 0.0);
    EXPECT_LT(t->residual_norm(), 1.0);
  }
}

TEST(LeanMd, AtomsAreConservedAcrossMigration) {
  LeanMdConfig cfg;
  cfg.atoms_per_task = 32;
  cfg.num_tasks = 4;
  cfg.slots_per_node = 2;
  cfg.iterations = 15;
  cfg.seconds_per_pair = 1e-5;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = cfg.nodes_needed();
  cc.spare_nodes = 0;
  AcrRuntime runtime(fast_acr(), cc);
  runtime.set_task_factory(cfg.factory());
  runtime.setup();
  RunSummary s = runtime.run(100.0);
  ASSERT_TRUE(s.complete);
  auto tasks = run_app_collect<LeanMdTask>(runtime);
  std::size_t total = 0;
  for (auto* t : tasks) total += t->atom_count();
  EXPECT_EQ(total, static_cast<std::size_t>(cfg.atoms_per_task) * 4);
}

TEST(MiniLulesh, ShockPropagatesAndEnergyStaysFinite) {
  MiniLuleshConfig cfg;
  cfg.ex = cfg.ey = cfg.ez = 5;
  cfg.num_tasks = 4;
  cfg.iterations = 12;
  cfg.seconds_per_element = 2e-5;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = cfg.nodes_needed();
  cc.spare_nodes = 0;
  AcrRuntime runtime(fast_acr(), cc);
  runtime.set_task_factory(cfg.factory());
  runtime.setup();
  RunSummary s = runtime.run(100.0);
  ASSERT_TRUE(s.complete);
  auto tasks = run_app_collect<MiniLuleshTask>(runtime);
  for (auto* t : tasks) {
    EXPECT_TRUE(std::isfinite(t->total_energy()));
    EXPECT_GE(t->total_energy(), 0.0);
    EXPECT_GT(t->dt(), 0.0);
  }
  // The deposit sits in task 0; its energy must remain dominant but the
  // simulation must not blow up.
  EXPECT_GT(tasks[0]->total_energy(), 0.0);
}

TEST(MiniMd, NeighborListsAreBuiltAndUsed) {
  MiniMdConfig cfg;
  cfg.atoms_per_task = 32;
  cfg.num_tasks = 4;
  cfg.iterations = 8;
  cfg.seconds_per_pair = 1e-5;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = cfg.nodes_needed();
  cc.spare_nodes = 0;
  AcrRuntime runtime(fast_acr(), cc);
  runtime.set_task_factory(cfg.factory());
  runtime.setup();
  RunSummary s = runtime.run(100.0);
  ASSERT_TRUE(s.complete);
  auto tasks = run_app_collect<MiniMdTask>(runtime);
  for (auto* t : tasks) {
    EXPECT_GT(t->neighbor_pairs(), 0u);
    EXPECT_TRUE(std::isfinite(t->kinetic_energy()));
  }
}

TEST(Jacobi, PupRoundTripPreservesTask) {
  Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = cfg.tasks_z = 2;
  cfg.block_x = cfg.block_y = cfg.block_z = 4;
  Jacobi3DTask task(cfg, 3);
  // Drive init through a private path: pup on a default task requires
  // initialized state, so construct via the factory + a manual init cycle
  // is exercised in the integration tests. Here: pack of two identical
  // tasks must agree.
  Jacobi3DTask twin(cfg, 3);
  pup::Packer pa, pb;
  task.pup(pa);
  twin.pup(pb);
  pup::Checkpoint ca = pa.take(), cb = pb.take();
  EXPECT_TRUE(pup::compare_checkpoints(ca, cb).match);
}

TEST(Table2, SpecsAreConsistent) {
  for (const auto& spec : kTable2) {
    EXPECT_GT(spec.checkpoint_bytes_per_core, 0.0);
    EXPECT_GE(spec.serialization_complexity, 1.0);
    EXPECT_GT(checkpoint_bytes_per_node(spec),
              spec.checkpoint_bytes_per_core);
  }
  // The paper's memory-pressure split: stencil/solver apps high, MD low.
  EXPECT_TRUE(kTable2[0].high_memory_pressure);
  EXPECT_FALSE(kTable2[4].high_memory_pressure);
  EXPECT_FALSE(kTable2[5].high_memory_pressure);
  // MD checkpoints are orders of magnitude smaller.
  EXPECT_LT(checkpoint_bytes_per_node(kTable2[4]),
            checkpoint_bytes_per_node(kTable2[0]) / 10.0);
}

}  // namespace
}  // namespace acr::apps
