// Heap allocations and resident bytes on the clean-network message path.
//
// This binary replaces the global operator new with a counting one, so it
// lives apart from acr_tests. MessagePath.* runs an 8-node driver-shaped
// jacobi job under ACR (strong scheme, full compare, heartbeats on, no
// checkpoint in the run) and counts every allocation made while the job
// runs through a window of steady iterations. Everything in the window —
// packing, flight, delivery, buffering, compute continuations, heartbeats —
// is charged to the task messages delivered in it. Footprint.* counts what
// a jacobi task and the checkpoint stores keep (live bytes, image
// storages): exact counts, not RSS, so they do not depend on the host.
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

// The tests drive one engine on one thread; plain counters suffice.
std::uint64_t g_allocations = 0;
std::int64_t g_live_bytes = 0;

// Every block carries its size in a header, so a delete knows what it
// frees. The header keeps malloc's 16-byte alignment.
constexpr std::size_t kHeader = 16;

}  // namespace

void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n + kHeader)) {
    *static_cast<std::size_t*>(p) = n;
    g_live_bytes += static_cast<std::int64_t>(n);
    return static_cast<char*>(p) + kHeader;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* block = static_cast<char*>(p) - kHeader;
  g_live_bytes -= static_cast<std::int64_t>(*static_cast<std::size_t*>(block));
  std::free(block);
}
void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

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

/// Allocations per task message over the same steady window as the test
/// above.
double steady_allocations_per_message() {
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
  runtime.engine().run_until(0.005);
  std::uint64_t allocs0 = g_allocations;
  std::uint64_t delivered0 = delivered;
  runtime.engine().run_until(0.019);
  std::uint64_t allocs = g_allocations - allocs0;
  std::uint64_t messages = delivered - delivered0;
  EXPECT_GT(messages, 15u * 2u * 120u);
  return static_cast<double>(allocs) / static_cast<double>(messages);
}

// A phase message is encoded into a shared payload arena and held as a
// slice of it until its phase computes: the steady path allocates only
// the arenas, one inbox vector per task and phase, and what the protocol
// around it (heartbeats, progress reports) needs.
TEST(MessagePath, SteadyIterationsAllocateAtMostHalfPerMessage) {
  double per_message = steady_allocations_per_message();
  std::printf("%.2f allocations per task message\n", per_message);
  EXPECT_LE(per_message, 0.5);
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

/// A context that swallows everything: enough to run a task's on_start.
class NullContext final : public rt::TaskContext {
 public:
  void send(rt::TaskAddr, int, buf::Buffer) override {}
  void after_compute(double, std::function<void()>) override {}
  rt::ProgressDecision report_progress(std::uint64_t) override {
    return rt::ProgressDecision::Continue;
  }
  void notify_done() override {}
  double now() const override { return 0.0; }
  rt::TaskAddr self() const override { return {}; }
  int replica() const override { return 0; }
  int num_nodes() const override { return 1; }
  bool paused() const override { return false; }
  Pcg32 make_app_rng(std::uint64_t salt) const override { return Pcg32(salt); }
};

TEST(Footprint, JacobiTaskKeepsOneSolutionBlock) {
  apps::Jacobi3DConfig app;
  app.tasks_x = app.tasks_y = 2;
  app.tasks_z = 8;
  app.block_x = app.block_y = app.block_z = 4;
  app.iterations = 0;  // on_start runs init() and nothing else
  NullContext ctx;
  apps::Jacobi3DTask task(app, 5);
  task.ctx = &ctx;
  std::int64_t before = g_live_bytes;
  task.on_start();
  // The stencil's output block is per thread, and the parked ghost edges
  // stay unallocated while they are zero.
  EXPECT_EQ(g_live_bytes - before,
            static_cast<std::int64_t>(app.doubles_per_task() * sizeof(double)));
}

TEST(Footprint, StrongRunHoldsOneVerifiedImagePerIndex) {
  apps::Jacobi3DConfig app;  // acr_driver's jacobi at 8 nodes per replica
  app.tasks_x = app.tasks_y = 2;
  app.tasks_z = 8;
  app.block_x = app.block_y = app.block_z = 4;
  app.slots_per_node = 4;
  app.iterations = 16;
  app.seconds_per_point = 1e-5;
  AcrConfig ac;
  ac.scheme = ResilienceScheme::Strong;
  ac.detection = SdcDetection::FullCompare;
  ac.checkpoint_interval = 0.004;
  ac.heartbeat_period = 0.0005;
  ac.heartbeat_timeout = 0.002;
  rt::ClusterConfig cc;
  cc.nodes_per_replica = app.nodes_needed();
  cc.spare_nodes = 2;
  AcrRuntime runtime(ac, cc);
  runtime.set_task_factory(app.factory());
  runtime.setup();
  RunSummary s = runtime.run(1.0);
  ASSERT_TRUE(s.complete);
  runtime.engine().run_until(s.finish_time + 0.01);
  ASSERT_GE(runtime.trace().count(rt::TraceKind::CheckpointCommitted), 2u);

  // Distinct image storages across both replicas' stores.
  std::vector<buf::Buffer> held;
  for (int r = 0; r < 2; ++r) {
    for (int i = 0; i < cc.nodes_per_replica; ++i) {
      const ckpt::Store& store = runtime.agent_at(r, i).store();
      ASSERT_TRUE(store.has_verified());
      EXPECT_FALSE(store.has_candidate());
      const buf::Buffer& b = store.verified().image.buffer();
      bool seen = false;
      for (const buf::Buffer& h : held) seen = seen || h.aliases(b);
      if (!seen) held.push_back(b);
    }
  }
  EXPECT_EQ(held.size(), static_cast<std::size_t>(cc.nodes_per_replica));
}

}  // namespace
}  // namespace acr
