// Quickstart: protect a custom application with ACR in ~60 lines.
//
// The application is a toy iterative heat rod: each task owns a 1D segment,
// exchanges edge values with its neighbors every iteration, and relaxes.
// To run under ACR a task only needs to
//   1. derive from apps::IterativeTask (or implement rt::Task directly),
//   2. describe its state in pup_state(), and
//   3. report progress — IterativeTask already does that per iteration.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "acr/runtime.h"
#include "apps/iterative.h"

namespace {

class HeatRodTask final : public acr::apps::IterativeTask {
 public:
  HeatRodTask(int task_id, int num_tasks, int tasks_per_node, int cells,
              std::uint64_t iters)
      : IterativeTask(iters),
        id_(task_id),
        num_tasks_(num_tasks),
        tasks_per_node_(tasks_per_node),
        cells_(cells) {}

 protected:
  void init() override {
    u_.assign(static_cast<std::size_t>(cells_), 0.0);
    if (id_ == 0) u_.front() = 100.0;  // hot boundary
  }

  acr::rt::TaskAddr addr_of(int task) const {
    return {task / tasks_per_node_, task % tasks_per_node_};
  }

  void send_phase(std::uint64_t iter, int phase) override {
    if (id_ > 0)
      send_phase_msg(addr_of(id_ - 1), iter, phase, +1,
                     std::span(&u_.front(), 1));
    if (id_ < num_tasks_ - 1)
      send_phase_msg(addr_of(id_ + 1), iter, phase, -1,
                     std::span(&u_.back(), 1));
  }

  int expected_in_phase(std::uint64_t, int) const override {
    return (id_ > 0 ? 1 : 0) + (id_ < num_tasks_ - 1 ? 1 : 0);
  }

  double compute_phase(std::uint64_t, int,
                       acr::apps::Inbox msgs) override {
    // The inbox is sorted by sender key: -1 (left) before +1 (right).
    double left = id_ == 0 ? 100.0 : msgs.front().data[0];
    double right = id_ == num_tasks_ - 1 ? 0.0 : msgs.back().data[0];
    std::vector<double> next(u_.size());
    for (std::size_t i = 0; i < u_.size(); ++i) {
      double l = i == 0 ? left : u_[i - 1];
      double r = i + 1 == u_.size() ? right : u_[i + 1];
      next[i] = 0.5 * u_[i] + 0.25 * (l + r);
    }
    u_ = std::move(next);
    return 1e-4;  // virtual seconds of compute per iteration
  }

  void pup_state(acr::pup::Puper& p) override { p | u_; }

 private:
  int id_;
  int num_tasks_;
  int tasks_per_node_;
  int cells_;
  std::vector<double> u_;
};

}  // namespace

int main() {
  static constexpr int kTasks = 8;
  static constexpr int kTasksPerNode = 2;

  // 1. Configure the framework: strong resilience, periodic checkpoints.
  acr::AcrConfig acr_cfg;
  acr_cfg.scheme = acr::ResilienceScheme::Strong;
  acr_cfg.checkpoint_interval = 0.01;
  acr_cfg.heartbeat_period = 0.001;
  acr_cfg.heartbeat_timeout = 0.005;

  // 2. Configure the virtual cluster: nodes per replica + spares.
  acr::rt::ClusterConfig cluster_cfg;
  cluster_cfg.nodes_per_replica = kTasks / kTasksPerNode;
  cluster_cfg.spare_nodes = 1;

  // 3. Provide the task factory: how each node's tasks are built.
  acr::AcrRuntime runtime(acr_cfg, cluster_cfg);
  runtime.set_task_factory([](int /*replica*/, int node_index) {
    std::vector<std::unique_ptr<acr::rt::Task>> tasks;
    for (int s = 0; s < kTasksPerNode; ++s) {
      int id = node_index * kTasksPerNode + s;
      tasks.push_back(std::make_unique<HeatRodTask>(id, kTasks, kTasksPerNode, 32, 100));
    }
    return tasks;
  });

  // 4. Run. Both replicas execute; checkpoints are compared for SDC.
  runtime.setup();
  acr::RunSummary s = runtime.run(/*max_virtual_time=*/100.0);

  std::printf("quickstart: complete=%s  virtual_time=%.3f s\n",
              s.complete ? "yes" : "no", s.finish_time);
  std::printf("checkpoints committed: %llu (all replica-compared, zero "
              "mismatches: %s)\n",
              static_cast<unsigned long long>(s.checkpoints),
              s.sdc_detected == 0 ? "yes" : "no");
  std::printf("\nprotocol trace (first 10 events):\n");
  int shown = 0;
  for (const auto& e : runtime.trace().events()) {
    std::printf("  %8.4f  %s\n", e.time, acr::rt::trace_kind_name(e.kind));
    if (++shown == 10) break;
  }
  return s.complete ? 0 : 1;
}
