// Runtime-layer tests: cluster messaging, role fail-over, pause mechanics,
// app-epoch filtering, node checkpoint pack/restore.
#include <gtest/gtest.h>

#include "pup/checker.h"
#include "rt/cluster.h"

namespace acr::rt {
namespace {

/// Minimal scripted task: counts messages, tracks resumes, pup's a payload.
class ProbeTask final : public Task {
 public:
  explicit ProbeTask(int id) : id_(id) { data_.assign(16, id * 1.0); }

  void on_start() override { ++starts; }
  void on_resume() override { ++resumes; }
  void on_message(const Message& m) override {
    received.push_back(m.tag);
  }
  void pup(pup::Puper& p) override {
    p | iter_;
    p | data_;
  }
  std::uint64_t progress() const override { return iter_; }

  void advance(std::uint64_t to) {
    iter_ = to;
    ctx->report_progress(iter_);
  }
  void mutate() { data_[3] += 1.0; }

  int id_;
  std::uint64_t iter_ = 0;
  std::vector<double> data_;
  int starts = 0;
  int resumes = 0;
  std::vector<int> received;
};

Cluster::TaskFactory probe_factory(int tasks_per_node) {
  return [tasks_per_node](int, int node_index) {
    std::vector<std::unique_ptr<Task>> out;
    for (int s = 0; s < tasks_per_node; ++s)
      out.push_back(std::make_unique<ProbeTask>(node_index * 100 + s));
    return out;
  };
}

struct Fixture {
  Engine engine;
  ClusterConfig cfg;
  std::unique_ptr<Cluster> cluster;

  explicit Fixture(int nodes = 3, int spares = 1, int tasks = 2) {
    cfg.nodes_per_replica = nodes;
    cfg.spare_nodes = spares;
    cluster = std::make_unique<Cluster>(engine, cfg);
    cluster->set_task_factory(probe_factory(tasks));
    cluster->populate();
  }
  ProbeTask& task(int r, int n, int s) {
    return static_cast<ProbeTask&>(cluster->node_at(r, n).task(s));
  }
};

TEST(Cluster, PopulateAssignsRolesAndSpares) {
  Fixture f(3, 2, 2);
  EXPECT_EQ(f.cluster->num_physical_nodes(), 8);
  EXPECT_EQ(f.cluster->spares_remaining(), 2);
  for (int r = 0; r < 2; ++r)
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(f.cluster->role_alive(r, i));
      EXPECT_EQ(f.cluster->node_at(r, i).num_tasks(), 2);
    }
}

TEST(Cluster, StartFiresEveryTaskOnce) {
  Fixture f;
  f.cluster->start_application();
  f.engine.run();
  for (int r = 0; r < 2; ++r)
    for (int i = 0; i < 3; ++i)
      for (int s = 0; s < 2; ++s) EXPECT_EQ(f.task(r, i, s).starts, 1);
}

TEST(Cluster, TaskMessageIsDeliveredWithLatency) {
  Fixture f;
  f.cluster->send_task(0, TaskAddr{0, 0}, TaskAddr{1, 1}, 42, {});
  EXPECT_EQ(f.cluster->in_flight_app_messages(0), 1);
  f.engine.run();
  EXPECT_GT(f.engine.now(), 0.0);
  EXPECT_EQ(f.cluster->in_flight_app_messages(0), 0);
  EXPECT_EQ(f.task(0, 1, 1).received, (std::vector<int>{42}));
  EXPECT_TRUE(f.task(1, 1, 1).received.empty());  // other replica untouched
}

TEST(Cluster, StaleEpochMessagesAreDropped) {
  Fixture f;
  f.cluster->send_task(0, TaskAddr{0, 0}, TaskAddr{1, 0}, 7, {});
  f.cluster->bump_app_epoch(0);  // rollback happened while in flight
  f.engine.run();
  EXPECT_TRUE(f.task(0, 1, 0).received.empty());
}

TEST(Cluster, DeadNodeDropsTraffic) {
  Fixture f;
  f.cluster->kill_role(0, 1);
  EXPECT_FALSE(f.cluster->role_alive(0, 1));
  f.cluster->send_task(0, TaskAddr{0, 0}, TaskAddr{1, 0}, 7, {});
  f.engine.run();
  EXPECT_TRUE(f.task(0, 1, 0).received.empty());
}

TEST(Cluster, GatedNodeDropsTaskTrafficButNotService) {
  Fixture f;
  f.cluster->node_at(0, 1).set_gated(true);
  f.cluster->send_task(0, TaskAddr{0, 0}, TaskAddr{1, 0}, 7, {});
  f.engine.run();
  EXPECT_TRUE(f.task(0, 1, 0).received.empty());
  f.cluster->node_at(0, 1).set_gated(false);
  f.cluster->send_task(0, TaskAddr{0, 0}, TaskAddr{1, 0}, 8, {});
  f.engine.run();
  EXPECT_EQ(f.task(0, 1, 0).received, (std::vector<int>{8}));
}

TEST(Cluster, PromoteSpareTakesOverRole) {
  Fixture f(3, 1, 2);
  f.cluster->kill_role(1, 2);
  Node* fresh = f.cluster->promote_spare(1, 2);
  ASSERT_NE(fresh, nullptr);
  EXPECT_TRUE(f.cluster->role_alive(1, 2));
  EXPECT_EQ(f.cluster->spares_remaining(), 0);
  EXPECT_EQ(fresh->num_tasks(), 2);
  // Traffic to the role reaches the fresh node now.
  f.cluster->send_task(1, TaskAddr{0, 0}, TaskAddr{2, 0}, 9, {});
  f.engine.run();
  EXPECT_EQ(static_cast<ProbeTask&>(fresh->task(0)).received,
            (std::vector<int>{9}));
  EXPECT_EQ(f.cluster->promote_spare(0, 0), nullptr);  // pool exhausted
}

TEST(Node, PackRestoreRoundTripsTaskState) {
  Fixture f;
  Node& node = f.cluster->node_at(0, 0);
  f.task(0, 0, 0).mutate();
  f.task(0, 0, 0).iter_ = 5;
  pup::Checkpoint c = node.pack_state();
  f.task(0, 0, 0).mutate();
  f.task(0, 0, 0).iter_ = 9;
  std::uint64_t inc_before = node.incarnation();
  node.restore_state(c);
  EXPECT_GT(node.incarnation(), inc_before);
  EXPECT_EQ(f.task(0, 0, 0).iter_, 5u);
  EXPECT_EQ(node.task_progress(0), 5u);
  EXPECT_EQ(node.max_local_progress(), 5u);
}

TEST(Node, BuddyNodesPackIdenticalState) {
  Fixture f;
  pup::Checkpoint a = f.cluster->node_at(0, 1).pack_state();
  pup::Checkpoint b = f.cluster->node_at(1, 1).pack_state();
  EXPECT_TRUE(pup::compare_checkpoints(a, b).match);
  // ...and a different node index differs.
  pup::Checkpoint c = f.cluster->node_at(1, 2).pack_state();
  EXPECT_FALSE(pup::compare_checkpoints(a, c).match);
}

TEST(Node, PauseDefersResumeUntilUnpause) {
  Fixture f;
  Node& node = f.cluster->node_at(0, 0);
  node.pause_task(0);
  EXPECT_TRUE(node.task_paused(0));
  f.engine.run();
  EXPECT_EQ(f.task(0, 0, 0).resumes, 0);
  node.unpause_task(0);
  f.engine.run();
  EXPECT_FALSE(node.task_paused(0));
  EXPECT_EQ(f.task(0, 0, 0).resumes, 1);
  // Unpausing an already-running task is a no-op.
  node.unpause_task(0);
  f.engine.run();
  EXPECT_EQ(f.task(0, 0, 0).resumes, 1);
}

TEST(Node, KillInvalidatesScheduledContinuations) {
  Fixture f;
  Node& node = f.cluster->node_at(0, 0);
  ProbeTask& t = f.task(0, 0, 0);
  bool continuation_ran = false;
  t.ctx->after_compute(1.0, [&] { continuation_ran = true; });
  node.kill();
  f.engine.run();
  EXPECT_FALSE(continuation_ran);
}

TEST(Node, RestoreInvalidatesScheduledContinuations) {
  Fixture f;
  Node& node = f.cluster->node_at(0, 0);
  pup::Checkpoint c = node.pack_state();
  bool continuation_ran = false;
  f.task(0, 0, 0).ctx->after_compute(1.0, [&] { continuation_ran = true; });
  node.restore_state(c);
  f.engine.run();
  EXPECT_FALSE(continuation_ran);
}

TEST(Cluster, MapOntoTorusSetsBuddyHops) {
  Engine e;
  ClusterConfig cfg;
  cfg.nodes_per_replica = 256;
  Cluster cluster(e, cfg);
  cluster.map_onto_torus(topo::bgp_partition(512), topo::MappingScheme::Column);
  EXPECT_EQ(cluster.config().buddy_hops, 1);
  cluster.map_onto_torus(topo::bgp_partition(512),
                         topo::MappingScheme::Default);
  EXPECT_EQ(cluster.config().buddy_hops, 4);
}

TEST(Cluster, RejectsMoreThanOneEngineLane) {
  // The engine is one serial heap; engine_lanes survives only as a field
  // that callers may set to 1.
  ClusterConfig cfg;
  cfg.nodes_per_replica = 4;
  cfg.engine_lanes = 2;
  Engine rejected;
  EXPECT_THROW(Cluster c(rejected, cfg), RequireError);
  cfg.engine_lanes = 1;
  Engine accepted;
  EXPECT_NO_THROW(Cluster c(accepted, cfg));
}

TEST(Cluster, AppRngIsReplicaIndependent) {
  Fixture f;
  Pcg32 a = f.task(0, 2, 1).ctx->make_app_rng(5);
  Pcg32 b = f.task(1, 2, 1).ctx->make_app_rng(5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
  Pcg32 c = f.task(0, 1, 1).ctx->make_app_rng(5);
  bool all_equal = true;
  Pcg32 a2 = f.task(0, 2, 1).ctx->make_app_rng(5);
  for (int i = 0; i < 16; ++i) all_equal &= (a2.next() == c.next());
  EXPECT_FALSE(all_equal);
}

}  // namespace
}  // namespace acr::rt
