// Virtual node: hosts tasks, their pause flags, and the per-node ACR service
// agent. Provides the checkpoint pack/restore entry points the agent uses.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "pup/pup.h"
#include "rt/message.h"
#include "rt/task.h"

namespace acr::rt {

class Cluster;
class NodeTaskContext;

/// Per-node protocol hook implemented by the ACR node agent.
class NodeService {
 public:
  virtual ~NodeService() = default;
  /// A message addressed to kServiceSlot on this node.
  virtual void on_service_message(const Message& m) = 0;
  /// A local task reported progress. Decide whether it pauses (Fig. 3).
  virtual ProgressDecision on_progress(int slot,
                                       std::uint64_t completed_iterations) = 0;
  /// A local task declared itself finished.
  virtual void on_task_done(int slot) = 0;
};

class Node {
 public:
  Node(Cluster& cluster, int physical_id);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // --- identity / role -----------------------------------------------------
  int physical_id() const { return physical_id_; }
  bool assigned() const { return replica_ >= 0; }
  int replica() const { return replica_; }
  int node_index() const { return node_index_; }
  /// Give this node a (replica, index) role. Used at job start and when a
  /// spare is promoted to replace a crashed node.
  void assign(int replica, int node_index);

  // --- liveness ------------------------------------------------------------
  bool alive() const { return alive_; }
  /// Fail-stop: the node drops all traffic and fires no more events.
  void kill();
  /// Return a repaired node to service: alive and ungated again, with a
  /// fresh incarnation (events scheduled by the dead incarnation stay
  /// inert). The caller decides what to do with it — typically re-pool it
  /// as a spare; tasks and role are re-established at the next promotion.
  void revive();
  std::uint64_t incarnation() const { return incarnation_; }

  /// Restart barrier gate: while gated, task-level messages are dropped
  /// (they belong to the timeline abandoned by the restore and will be
  /// re-sent after the resume barrier) and counted in the cluster's
  /// NetCounters::gated_drops; service messages still flow.
  bool gated() const { return gated_; }
  void set_gated(bool gated) { gated_ = gated; }

  // --- tasks ---------------------------------------------------------------
  /// (Re)create the task set from the cluster's task factory. Any previous
  /// tasks are destroyed. Does not start them.
  void create_tasks();
  int num_tasks() const { return static_cast<int>(tasks_.size()); }
  Task& task(int slot) { return *tasks_.at(static_cast<std::size_t>(slot)); }

  /// Fire on_start() for every task (via engine events at the current time).
  void start_tasks();

  // --- pause control (checkpoint consensus) ---------------------------------
  bool task_paused(int slot) const;
  void pause_task(int slot);
  /// Clear the pause flag and schedule on_resume().
  void unpause_task(int slot);
  void unpause_all();
  std::uint64_t task_progress(int slot) const {
    return progress_.at(static_cast<std::size_t>(slot));
  }

  // --- checkpointing -------------------------------------------------------
  /// Serialize every task into one stream (task count header + streams).
  /// Packs into the node's persistent arena (steady-state epochs reuse the
  /// capacity retired by dropped checkpoints). When `digest_sink` is given,
  /// every packed byte is also streamed into it — the checksum-mode buddy
  /// digest comes out of the same traversal that produced the image.
  pup::Checkpoint pack_state(buf::Sink* digest_sink = nullptr);
  /// Restore every task from `c`. Bumps the incarnation so stale compute
  /// continuations and timers die. Does NOT resume the tasks.
  void restore_state(const pup::Checkpoint& c);
  /// Schedule on_resume() for every task (post-restore restart).
  void resume_all_tasks();

  // --- service agent ---------------------------------------------------------
  void set_service(std::unique_ptr<NodeService> service);
  NodeService* service() { return service_.get(); }

  // --- runtime internals (used by Cluster) -----------------------------------
  void deliver(const Message& m);
  Cluster& cluster() { return cluster_; }
  const Cluster& cluster() const { return cluster_; }

 private:
  friend class NodeTaskContext;

  Cluster& cluster_;
  int physical_id_;
  int replica_ = -1;
  int node_index_ = -1;
  bool alive_ = true;
  bool gated_ = false;
  std::uint64_t incarnation_ = 0;

  std::vector<std::unique_ptr<Task>> tasks_;
  /// One per task; each holds its task's pause flag.
  std::vector<std::unique_ptr<NodeTaskContext>> contexts_;
  std::vector<std::uint64_t> progress_;
  std::unique_ptr<NodeService> service_;
  /// Checkpoint pack arena, reused across epochs (see pack_state).
  buf::BufferBuilder pack_builder_;
};

}  // namespace acr::rt
