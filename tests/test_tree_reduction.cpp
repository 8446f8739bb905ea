// Fig. 3 tree reductions on the node agents: every agent of a 3-node
// replica pair runs on a real cluster, and a recording hook stands in for
// the job manager. Node 0 is the tree root; nodes 1 and 2 are its leaves.
// The tests script the manager's commands and inject duplicated child
// reports, then count what each root sends up.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "acr/node_agent.h"
#include "acr/wire.h"

namespace acr {
namespace {

constexpr int kNodes = 3;

struct Harness {
  rt::Engine engine;
  rt::ClusterConfig cc;
  std::unique_ptr<rt::Cluster> cluster;
  AcrConfig config;
  std::vector<rt::Message> to_manager;

  Harness() {
    cc.nodes_per_replica = kNodes;
    cc.spare_nodes = 0;
    cluster = std::make_unique<rt::Cluster>(engine, cc);
    // Taskless nodes: every agent is ready at any decided iteration, so
    // the script alone decides when each node reports.
    cluster->set_task_factory(
        [](int, int) { return std::vector<std::unique_ptr<rt::Task>>{}; });
    cluster->populate();
    cluster->set_manager_hook(
        [this](const rt::Message& m) { to_manager.push_back(m); });
    // Agents are not start()ed: no heartbeats, so the engine drains.
    for (int r = 0; r < 2; ++r)
      for (int i = 0; i < kNodes; ++i) {
        rt::Node& node = cluster->node_at(r, i);
        node.set_service(
            std::make_unique<NodeAgent>(AcrEnv{cluster.get(), &config}, node));
      }
  }

  /// Manager -> agent (replica, node); delivered by settle().
  template <typename Msg>
  void command(int replica, int node, int tag, Msg msg) {
    cluster->send_from_manager(replica, node, tag, rt::pack_payload(msg));
  }
  template <typename Msg>
  void command_all(int tag, Msg msg) {
    for (int r = 0; r < 2; ++r)
      for (int i = 0; i < kNodes; ++i) command(r, i, tag, msg);
  }
  /// A (re-)delivered tree report from `child` to its replica's root.
  template <typename Msg>
  void child_report(int replica, int child, int tag, Msg msg) {
    cluster->send_service(replica, child, replica, 0, tag,
                          rt::pack_payload(msg));
  }
  void settle() { engine.run(); }

  /// Root reports of `tag` that `replica` has sent the manager.
  std::vector<const rt::Message*> sent(int replica, int tag) const {
    std::vector<const rt::Message*> out;
    for (const rt::Message& m : to_manager)
      if (m.src_replica == replica && m.tag == tag) out.push_back(&m);
    return out;
  }
};

TEST(TreeReduction, DuplicatedChildReportNeverReportsTwice) {
  Harness h;
  // Epoch 1 reaches the root and child 1 of replica 0, not child 2. A
  // second report from child 1 must not stand in for child 2, and is not
  // folded in either (a re-delivered frame carries the same value; this
  // one differs so that folding it would show).
  h.command(0, 0, wire::kCheckpointRequest, wire::CkptRequestMsg{1, 3});
  h.command(0, 1, wire::kCheckpointRequest, wire::CkptRequestMsg{1, 3});
  h.settle();
  h.child_report(0, 1, wire::kTreeProgress, wire::ProgressMsg{1, 7});
  h.settle();
  EXPECT_TRUE(h.sent(0, wire::kReplicaQuiesced).empty());
  h.command(0, 2, wire::kCheckpointRequest, wire::CkptRequestMsg{1, 3});
  h.settle();
  auto quiesced = h.sent(0, wire::kReplicaQuiesced);
  ASSERT_EQ(quiesced.size(), 1u);
  // Taskless nodes have no progress: the subtree maximum is 0.
  EXPECT_EQ(rt::unpack_payload<wire::ProgressMsg>(*quiesced[0]).max_progress,
            0u);
  h.child_report(0, 1, wire::kTreeProgress, wire::ProgressMsg{1, 0});
  h.child_report(0, 2, wire::kTreeProgress, wire::ProgressMsg{1, 0});
  h.settle();
  EXPECT_EQ(h.sent(0, wire::kReplicaQuiesced).size(), 1u);

  // The readiness reduction, the same way round.
  h.command(0, 0, wire::kIterationDecided, wire::IterationMsg{1, 0});
  h.command(0, 1, wire::kIterationDecided, wire::IterationMsg{1, 0});
  h.settle();
  h.child_report(0, 1, wire::kTreeReady, wire::ReadyMsg{1});
  h.settle();
  EXPECT_TRUE(h.sent(0, wire::kReplicaReady).empty());
  h.command(0, 2, wire::kIterationDecided, wire::IterationMsg{1, 0});
  h.settle();
  EXPECT_EQ(h.sent(0, wire::kReplicaReady).size(), 1u);
  h.child_report(0, 1, wire::kTreeReady, wire::ReadyMsg{1});
  h.child_report(0, 2, wire::kTreeReady, wire::ReadyMsg{1});
  h.settle();
  EXPECT_EQ(h.sent(0, wire::kReplicaReady).size(), 1u);
}

TEST(TreeReduction, ChildVerdictsBeforeOwnCompareDoNotReportEarly) {
  Harness h;
  h.command_all(wire::kCheckpointRequest, wire::CkptRequestMsg{1, 3});
  h.settle();
  h.command_all(wire::kIterationDecided, wire::IterationMsg{1, 0});
  h.settle();
  ASSERT_EQ(h.sent(1, wire::kReplicaReady).size(), 1u);
  // Everyone packs except the replica-1 root: both its children compare
  // against their buddies and report up before it has a verdict itself.
  for (int r = 0; r < 2; ++r)
    for (int i = 0; i < kNodes; ++i)
      if (r == 0 || i != 0)
        h.command(r, i, wire::kPackCommand, wire::EpochMsg{1});
  h.settle();
  EXPECT_TRUE(h.sent(1, wire::kReplicaVerdict).empty());
  // A second, mismatching verdict from child 1 is not folded in.
  h.child_report(1, 1, wire::kTreeVerdict, wire::VerdictMsg{1, 0, 1});
  h.settle();
  EXPECT_TRUE(h.sent(1, wire::kReplicaVerdict).empty());
  h.command(1, 0, wire::kPackCommand, wire::EpochMsg{1});
  h.settle();
  auto verdicts = h.sent(1, wire::kReplicaVerdict);
  ASSERT_EQ(verdicts.size(), 1u);
  auto v = rt::unpack_payload<wire::VerdictMsg>(*verdicts[0]);
  EXPECT_EQ(v.epoch, 1u);
  EXPECT_EQ(v.match, 1);
  EXPECT_EQ(v.mismatched_nodes, 0u);
  // Re-delivered child verdicts, even mismatching ones, change nothing.
  h.child_report(1, 1, wire::kTreeVerdict, wire::VerdictMsg{1, 0, 1});
  h.child_report(1, 2, wire::kTreeVerdict, wire::VerdictMsg{1, 1, 0});
  h.settle();
  EXPECT_EQ(h.sent(1, wire::kReplicaVerdict).size(), 1u);
  // Replica 0 compares nothing and never reports a verdict.
  EXPECT_TRUE(h.sent(0, wire::kReplicaVerdict).empty());
}

}  // namespace
}  // namespace acr
