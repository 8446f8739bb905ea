// Mini-application tests: every app runs under full ACR protection with
// its real communication pattern (halo exchange, butterfly allreduce,
// migration), replicas stay bit-identical, PUP round-trips, physics sanity,
// and failure recovery reproduces the failure-free result.
#include <gtest/gtest.h>

#include <bit>
#include <memory>

#include "acr/runtime.h"
#include "apps/hpccg.h"
#include "apps/jacobi3d.h"
#include "apps/leanmd.h"
#include "apps/minilulesh.h"
#include "apps/minimd.h"
#include "apps/table2.h"
#include "checksum/fletcher.h"
#include "rt/cluster.h"
#include "rt/engine.h"

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
  ac.scheme = ResilienceScheme::Strong;
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

// --- Ghost edges and corners -------------------------------------------------
// The stencil and the halos never touch a block's 12 ghost edges and 8
// corners, but they are checkpointed and the SDC injector can flip them. A
// flip there shows in every other checkpoint (the task's state alternated
// between two blocks) and is dropped by a restore. One stencil block per
// task keeps exactly that.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// One jacobi task per replica on a bare cluster (no ACR, no neighbors).
/// Its stencil pass runs in the event that completes the previous
/// iteration, so every completed iteration is one more pass.
class LoneJacobi {
 public:
  explicit LoneJacobi(int bx = 4, int by = 4, int bz = 4) {
    cfg_.tasks_x = cfg_.tasks_y = cfg_.tasks_z = 1;
    cfg_.block_x = bx;
    cfg_.block_y = by;
    cfg_.block_z = bz;
    cfg_.slots_per_node = 1;
    cfg_.iterations = 64;
    cfg_.seconds_per_point = 1e-5;
    rt::ClusterConfig cc;
    cc.nodes_per_replica = 1;
    cc.spare_nodes = 0;
    cluster_ = std::make_unique<rt::Cluster>(engine_, cc);
    cluster_->set_task_factory(cfg_.factory());
    cluster_->populate();
    cluster_->start_application();
    engine_.run_until(0.0);  // on_start: init and the first pass
  }

  Jacobi3DTask& task(int replica = 0) {
    return static_cast<Jacobi3DTask&>(cluster_->node_at(replica, 0).task(0));
  }

  /// Run until both replicas' tasks have made one more stencil pass.
  void pass() {
    std::uint64_t done = task(0).progress();
    while (task(0).progress() == done || task(1).progress() == done)
      ASSERT_TRUE(engine_.step());
  }

  /// Bits of cell (i,j,k) in the task's packed image.
  std::uint64_t packed(int i, int j, int k, int replica = 0) {
    pup::Checkpoint image = pup::make_checkpoint(task(replica));
    Jacobi3DTask twin(cfg_, 0);
    pup::restore_checkpoint(twin, image);
    return bits(twin.value_at(i, j, k));
  }

  /// Whether every ghost edge and corner cell of the packed image is +0.0.
  bool edges_zero(int replica) {
    const Jacobi3DConfig& c = cfg_;
    for (int k = -1; k <= c.block_z; ++k)
      for (int j = -1; j <= c.block_y; ++j)
        for (int i = -1; i <= c.block_x; ++i) {
          int ghosts = (i < 0 || i == c.block_x) + (j < 0 || j == c.block_y) +
                       (k < 0 || k == c.block_z);
          if (ghosts >= 2 && packed(i, j, k, replica) != 0) return false;
        }
    return true;
  }

  /// Pack and unpack the live task, as the SDC injector and a restore do.
  void round_trip() {
    pup::restore_checkpoint(task(), pup::make_checkpoint(task()));
  }

 private:
  Jacobi3DConfig cfg_;
  rt::Engine engine_;
  std::unique_ptr<rt::Cluster> cluster_;
};

TEST(JacobiEdges, FlipShowsInEveryOtherPackedImage) {
  LoneJacobi job;
  job.pass();
  job.task().value_at(-1, -1, 2) = 0.75;  // an x-y ghost edge
  job.task().value_at(-1, -1, -1) = -0.0;  // a corner, sign bit flipped
  for (int pass = 0; pass < 6; ++pass) {
    bool carried = pass % 2 == 0;
    EXPECT_EQ(job.packed(-1, -1, 2), bits(carried ? 0.75 : 0.0)) << pass;
    EXPECT_EQ(job.packed(-1, -1, -1), bits(carried ? -0.0 : 0.0)) << pass;
    // Replica 1's task runs on the same thread and never sees the flip.
    EXPECT_EQ(job.packed(-1, -1, 2, 1), 0u) << pass;
    EXPECT_EQ(job.packed(-1, -1, -1, 1), 0u) << pass;
    job.pass();
  }
  // The cells feed no stencil: the interiors stay bitwise equal.
  EXPECT_EQ(bits(job.task(0).solution_norm()),
            bits(job.task(1).solution_norm()));
}

TEST(JacobiEdges, UnpackDropsAParkedFlipAndKeepsALiveOne) {
  LoneJacobi job;
  job.pass();
  job.task().value_at(-1, -1, 1) = 0.75;
  job.pass();  // the flip is parked: out of the image for one pass
  ASSERT_EQ(job.packed(-1, -1, 1), 0u);
  job.round_trip();
  for (int pass = 0; pass < 6; ++pass) {
    EXPECT_EQ(job.packed(-1, -1, 1), 0u) << pass;
    job.pass();
  }
  // A flip that is in the image when it is unpacked stays, and alternates.
  job.task().value_at(-1, -1, 1) = 0.5;
  job.round_trip();
  for (int pass = 0; pass < 6; ++pass) {
    EXPECT_EQ(job.packed(-1, -1, 1), bits(pass % 2 == 0 ? 0.5 : 0.0)) << pass;
    job.pass();
  }
}

TEST(JacobiEdges, StencilBlockFollowsTheBlockShape) {
  // Equal sizes, different shapes: the edge cells of one are interior
  // cells of the other, so the thread's output block must not carry over.
  {
    LoneJacobi tall(4, 4, 8);
    for (int pass = 0; pass < 3; ++pass) tall.pass();
  }
  LoneJacobi wide(8, 4, 4);
  for (int pass = 0; pass < 4; ++pass) {
    EXPECT_TRUE(wide.edges_zero(0)) << pass;
    EXPECT_TRUE(wide.edges_zero(1)) << pass;
    wide.pass();
  }
}

/// Fletcher-64 of every trace event: time, kind, replica, node, detail.
std::uint64_t trace_digest(const rt::TraceLog& trace) {
  checksum::Fletcher64 f;
  for (const rt::TraceEvent& e : trace.events()) {
    std::int64_t fields[4] = {
        static_cast<std::int64_t>(bits(e.time)), static_cast<int>(e.kind),
        e.replica, e.node_index};
    f.append(std::as_bytes(std::span(fields)));
    f.append(std::as_bytes(std::span(e.detail)));
  }
  return f.digest();
}

TEST(JacobiEdges, EdgeFlipRunMatchesItsPinnedTraceAndAnswer) {
  // Strong scheme, full compare: flips in a ghost edge of one replica and
  // a corner of the other alternate in and out of the checkpoints. The
  // trace and the final state are pinned from the two-block implementation.
  Jacobi3DConfig cfg;
  cfg.tasks_x = cfg.tasks_y = cfg.tasks_z = 2;
  cfg.block_x = cfg.block_y = cfg.block_z = 4;
  cfg.iterations = 30;
  cfg.slots_per_node = 2;
  cfg.seconds_per_point = 1e-5;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = cfg.nodes_needed();
  cc.spare_nodes = 2;
  AcrConfig ac = fast_acr();
  ac.scheme = ResilienceScheme::Strong;
  ac.detection = SdcDetection::FullCompare;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(cfg.factory());
  runtime.setup();
  runtime.engine().run_until(0.006);
  auto task = [&](int replica, int node, int slot) -> Jacobi3DTask& {
    return static_cast<Jacobi3DTask&>(
        runtime.cluster().node_at(replica, node).task(slot));
  };
  task(0, 1, 0).value_at(-1, -1, 2) += 1.0;
  task(1, 2, 1).value_at(4, 4, 4) = -0.0;
  runtime.engine().run_until(0.011);
  task(0, 3, 1).value_at(-1, 4, 1) += 2.0;
  RunSummary s = runtime.run(100.0);
  ASSERT_TRUE(s.complete);
  runtime.engine().run_until(s.finish_time + 0.05);
  EXPECT_EQ(runtime.trace().count(rt::TraceKind::SdcDetected), 1u);
  EXPECT_EQ(runtime.trace().events().size(), 27u);
  EXPECT_EQ(trace_digest(runtime.trace()), 11736798089075668368ULL);
  EXPECT_EQ(replica_digest(runtime, 0), 11062454334138548338ULL);
  EXPECT_EQ(replica_digest(runtime, 1), 11062454334138548338ULL);
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
