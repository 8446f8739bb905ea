// Heap allocations on the clean-network task-message path.
//
// This binary replaces the global operator new with a counting one, so it
// lives apart from acr_tests. MessagePath.* runs an 8-node driver-shaped
// jacobi job under ACR (strong scheme, full compare, heartbeats on, no
// checkpoint in the run) and counts every allocation made while the job
// runs through a window of steady iterations. Everything in the window —
// packing, flight, delivery, buffering, compute continuations, heartbeats —
// is charged to the task messages delivered in it.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "acr/runtime.h"
#include "apps/jacobi3d.h"
#include "rt/engine.h"

namespace {

// The tests drive one engine on one thread; a plain counter suffices.
std::uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace acr {
namespace {

/// Forwards to a wrapped task and counts the messages delivered to it.
class CountingTask final : public rt::Task {
 public:
  CountingTask(std::unique_ptr<rt::Task> inner, std::uint64_t& delivered)
      : inner_(std::move(inner)), delivered_(delivered) {}

  void on_start() override { bind()->on_start(); }
  void on_resume() override { bind()->on_resume(); }
  void on_message(const rt::Message& m) override {
    ++delivered_;
    bind()->on_message(m);
  }
  void pup(pup::Puper& p) override { bind()->pup(p); }
  std::uint64_t progress() const override { return inner_->progress(); }

 private:
  rt::Task* bind() {
    inner_->ctx = ctx;
    return inner_.get();
  }

  std::unique_ptr<rt::Task> inner_;
  std::uint64_t& delivered_;
};

TEST(MessagePath, SteadyIterationsAllocateAtMostFourTimesPerMessage) {
  apps::Jacobi3DConfig app;  // acr_driver's jacobi at 8 nodes per replica
  app.tasks_x = app.tasks_y = 2;
  app.tasks_z = 8;
  app.block_x = app.block_y = app.block_z = 4;
  app.slots_per_node = 4;
  app.iterations = 40;
  app.seconds_per_point = 1e-5;
  AcrConfig ac;
  ac.scheme = ResilienceScheme::Strong;
  ac.detection = SdcDetection::FullCompare;
  ac.checkpoint_interval = 1.0;  // past the end of the job: no checkpoint
  ac.heartbeat_period = 0.0005;
  ac.heartbeat_timeout = 0.002;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = app.nodes_needed();
  cc.spare_nodes = 2;
  cc.seed = 1;

  std::uint64_t delivered = 0;
  rt::Cluster::TaskFactory inner = app.factory();
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory([&](int replica, int node_index) {
    std::vector<std::unique_ptr<rt::Task>> tasks;
    for (auto& t : inner(replica, node_index))
      tasks.push_back(std::make_unique<CountingTask>(std::move(t), delivered));
    return tasks;
  });
  runtime.setup();

  // An iteration takes about 0.7 ms of virtual time: warm up for about 7,
  // then measure about 20.
  runtime.engine().run_until(0.005);
  std::uint64_t allocs0 = g_allocations;
  std::uint64_t delivered0 = delivered;
  runtime.engine().run_until(0.019);
  std::uint64_t allocs = g_allocations - allocs0;
  std::uint64_t messages = delivered - delivered0;

  // 120 halo messages per iteration and replica on a 2x2x8 task grid.
  ASSERT_GT(messages, 15u * 2u * 120u);
  EXPECT_EQ(runtime.trace().count(rt::TraceKind::CheckpointCommitted), 0u);
  double per_message =
      static_cast<double>(allocs) / static_cast<double>(messages);
  std::printf("%llu allocations over %llu task messages: %.2f per message\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(messages), per_message);
  EXPECT_LE(per_message, 4.0);
}

TEST(MessagePath, CancellingFiredIdsAllocatesNothing) {
  // Watchdogs cancel timers that fired long ago. Such a cancel must store
  // nothing: no tracked-id set, no slab or queue growth.
  rt::Engine e;
  std::vector<rt::Engine::EventId> fired;
  fired.reserve(1000);
  for (int i = 0; i < 1000; ++i)
    fired.push_back(e.schedule_at(static_cast<double>(i % 10), [] {}));
  for (int i = 0; i < 100; ++i) e.schedule_at(1000.0, [] {});  // stay pending
  e.run_until(10.0);
  std::uint64_t before = g_allocations;
  for (int round = 0; round < 3; ++round)
    for (rt::Engine::EventId id : fired) e.cancel(id);
  EXPECT_EQ(g_allocations, before);
  EXPECT_EQ(e.pending(), 100u);
}

}  // namespace
}  // namespace acr
