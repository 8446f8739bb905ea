#include "rt/node.h"

#include "common/logging.h"
#include "rt/cluster.h"

namespace acr::rt {

/// TaskContext implementation bound to one (node, slot).
class NodeTaskContext final : public TaskContext {
 public:
  NodeTaskContext(Node& node, int slot) : node_(node), slot_(slot) {}

  void send(TaskAddr dst, int tag, buf::Buffer payload) override {
    if (!node_.alive()) return;  // fail-stop: a dead node sends nothing
    node_.cluster().send_task(node_.replica(), self(), dst, tag,
                              std::move(payload));
  }

  void after_compute(double seconds, std::function<void()> fn) override {
    if (!node_.alive()) return;
    std::uint64_t inc = node_.incarnation();
    Node* node = &node_;
    node_.cluster().engine().schedule_after(
        seconds,
        [node, inc, fn = std::move(fn)]() {
          // A kill or rollback in the meantime invalidates the continuation.
          if (node->alive() && node->incarnation() == inc) fn();
        });
  }

  void notify_done() override {
    if (node_.service() != nullptr) node_.service()->on_task_done(slot_);
  }

  ProgressDecision report_progress(std::uint64_t iters) override {
    node_.note_progress(slot_, iters);
    ProgressDecision d = ProgressDecision::Continue;
    if (node_.service() != nullptr)
      d = node_.service()->on_progress(slot_, iters);
    if (d == ProgressDecision::Pause) node_.pause_task(slot_);
    return d;
  }

  double now() const override { return node_.cluster().engine().now(); }
  TaskAddr self() const override { return TaskAddr{node_.node_index(), slot_}; }
  int replica() const override { return node_.replica(); }
  int num_nodes() const override { return node_.cluster().nodes_per_replica(); }
  bool paused() const override { return node_.task_paused(slot_); }

  Pcg32 make_app_rng(std::uint64_t salt) const override {
    // Seeded by logical position only: buddy tasks in the two replicas draw
    // identical streams, a prerequisite for bit-identical checkpoints.
    std::uint64_t seed = node_.cluster().master_seed();
    seed ^= 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(
               node_.node_index()) + 1);
    seed ^= 0xC2B2AE3D27D4EB4FULL * (static_cast<std::uint64_t>(slot_) + 1);
    seed ^= salt;
    return Pcg32(seed, 0x5bd1e995);
  }

 private:
  Node& node_;
  int slot_;
};

Node::Node(Cluster& cluster, int physical_id)
    : cluster_(cluster), physical_id_(physical_id) {}

Node::~Node() = default;

void Node::assign(int replica, int node_index) {
  replica_ = replica;
  node_index_ = node_index;
}

void Node::kill() {
  alive_ = false;
  ++incarnation_;
}

void Node::revive() {
  ACR_REQUIRE(!alive_, "revive() is only meaningful on a dead node");
  alive_ = true;
  gated_ = false;
  ++incarnation_;
}

void Node::create_tasks() {
  ACR_REQUIRE(assigned(), "cannot create tasks on an unassigned node");
  ACR_REQUIRE(cluster_.task_factory() != nullptr, "no task factory set");
  ++incarnation_;
  tasks_ = cluster_.task_factory()(replica_, node_index_);
  contexts_.clear();
  paused_.assign(tasks_.size(), false);
  progress_.assign(tasks_.size(), 0);
  max_progress_ = 0;
  for (std::size_t slot = 0; slot < tasks_.size(); ++slot) {
    contexts_.push_back(
        std::make_unique<NodeTaskContext>(*this, static_cast<int>(slot)));
    tasks_[slot]->ctx = contexts_[slot].get();
  }
}

void Node::start_tasks() {
  std::uint64_t inc = incarnation_;
  for (std::size_t slot = 0; slot < tasks_.size(); ++slot) {
    Task* t = tasks_[slot].get();
    cluster_.engine().schedule_after(
        0.0,
        [this, t, inc]() {
          if (alive_ && incarnation_ == inc) t->on_start();
        });
  }
}

void Node::unpause_task(int slot) {
  auto s = static_cast<std::size_t>(slot);
  if (!paused_.at(s)) return;
  paused_[s] = false;
  Task* t = tasks_.at(s).get();
  std::uint64_t inc = incarnation_;
  cluster_.engine().schedule_after(
      0.0,
      [this, t, inc]() {
        if (alive_ && incarnation_ == inc) t->on_resume();
      });
}

void Node::unpause_all() {
  for (int slot = 0; slot < num_tasks(); ++slot) unpause_task(slot);
}

void Node::note_progress(int slot, std::uint64_t iters) {
  auto s = static_cast<std::size_t>(slot);
  progress_.at(s) = iters;
  if (iters > max_progress_) max_progress_ = iters;
}

pup::Checkpoint Node::pack_state(buf::Sink* digest_sink) {
  pup::Packer p(pack_builder_);
  p.tee(digest_sink);
  std::uint32_t count = static_cast<std::uint32_t>(tasks_.size());
  p | count;
  for (const auto& t : tasks_) t->pup(p);
  return p.take();
}

void Node::restore_state(const pup::Checkpoint& c) {
  pup::Unpacker u(c);
  std::uint32_t count = 0;
  u | count;
  ACR_REQUIRE(count == tasks_.size(),
              "checkpoint task count does not match node task set");
  for (auto& t : tasks_) t->pup(u);
  ACR_REQUIRE(u.exhausted(), "node checkpoint has trailing bytes");
  ++incarnation_;  // stale continuations must not fire into restored state
  // Rebuild the progress ledger from the restored task states: the old
  // values describe a future that was rolled back.
  max_progress_ = 0;
  for (std::size_t slot = 0; slot < tasks_.size(); ++slot) {
    progress_[slot] = tasks_[slot]->progress();
    if (progress_[slot] > max_progress_) max_progress_ = progress_[slot];
  }
}

void Node::resume_all_tasks() {
  std::uint64_t inc = incarnation_;
  for (std::size_t slot = 0; slot < tasks_.size(); ++slot) {
    paused_[slot] = false;
    Task* t = tasks_[slot].get();
    cluster_.engine().schedule_after(
        0.0,
        [this, t, inc]() {
          if (alive_ && incarnation_ == inc) t->on_resume();
        });
  }
}

void Node::set_service(std::unique_ptr<NodeService> service) {
  service_ = std::move(service);
}

void Node::deliver(const Message& m) {
  if (!alive_) return;  // fail-stop: no responses, traffic disappears
  if (m.dst.slot == kServiceSlot) {
    if (service_) service_->on_service_message(m);
    return;
  }
  if (gated_) return;  // restart barrier: pre-resume app traffic is stale
  auto slot = static_cast<std::size_t>(m.dst.slot);
  if (slot >= tasks_.size()) {
    log_warn("rt") << "dropping message for missing slot " << m.dst.slot
                   << " on node " << node_index_;
    return;
  }
  tasks_[slot]->on_message(m);
}

}  // namespace acr::rt
