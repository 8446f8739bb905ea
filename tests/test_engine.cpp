// Virtual-time event engine tests: (time, id) dispatch order, cancellation,
// run_until boundaries and the cancelled-id backlog bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "rt/engine.h"

namespace acr::rt {
namespace {

TEST(Engine, FiresInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 3.0);
  EXPECT_EQ(e.events_processed(), 3u);
}

TEST(Engine, TiesBreakFifo) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

// The EngineLanes cases are ordering pins first written for the sharded
// engine; they hold for the single-heap engine unchanged.
TEST(EngineLanes, InWindowSchedulingCannotJumpTheGlobalOrder) {
  // An event at t=1 schedules a follow-up at t=1 (equal deadline). The
  // follow-up's id is larger than every pre-scheduled id, so it must fire
  // after all other t=1 events, never ahead of one.
  Engine e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] {
    order.push_back(0);
    e.schedule_at(1.0, [&] { order.push_back(99); });
  });
  for (int i = 1; i < 8; ++i)
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  e.run();
  ASSERT_EQ(order.size(), 9u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(order.back(), 99);
}

// Deflake guard for the reliable transport: retransmit timers for frames
// sent in the same event all land on identical deadlines. The engine's
// tie-break (strictly increasing EventId, FIFO among equal times) must hold
// through cancel/re-arm churn, or the retransmit order — and with it every
// downstream event in a fuzz run — would depend on container luck.
TEST(Engine, EqualDeadlineTimersSurviveCancelRearmChurn) {
  Engine e;
  std::vector<int> order;
  std::vector<Engine::EventId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(e.schedule_at(1.0, [&order, i] { order.push_back(i); }));
  // Cancel the even timers and re-arm them at the SAME deadline: they must
  // now fire after every surviving odd timer, in re-arm order.
  for (int i = 0; i < 8; i += 2) {
    e.cancel(ids[static_cast<std::size_t>(i)]);
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 0, 2, 4, 6}));
}

TEST(Engine, EventIdsStrictlyIncreaseAcrossCancellations) {
  Engine e;
  Engine::EventId prev = 0;
  for (int i = 0; i < 20; ++i) {
    Engine::EventId id = e.schedule_at(1.0, [] {});
    EXPECT_GT(id, prev);
    prev = id;
    if (i % 3 == 0) e.cancel(id);  // cancellation must not recycle ids
  }
  e.run();
}

TEST(Engine, HandlersCanScheduleMore) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&]() {
    ++fired;
    if (fired < 5) e.schedule_after(1.0, chain);
  };
  e.schedule_after(1.0, chain);
  e.run();
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(e.now(), 5.0);
}

TEST(Engine, CancelSuppressesEvent) {
  Engine e;
  bool fired = false;
  auto id = e.schedule_at(1.0, [&] { fired = true; });
  e.cancel(id);
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelUnknownIdIsNoop) {
  Engine e;
  e.cancel(424242);
  bool fired = false;
  e.schedule_at(1.0, [&] { fired = true; });
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Engine e;
  std::vector<double> fired;
  for (double t : {0.5, 1.5, 2.5}) e.schedule_at(t, [&fired, t] { fired.push_back(t); });
  std::size_t n = e.run_until(2.0);
  EXPECT_EQ(n, 2u);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(Engine, RunUntilSkipsCancelledWithoutOvershooting) {
  Engine e;
  bool late_fired = false;
  auto early = e.schedule_at(1.0, [] {});
  e.schedule_at(5.0, [&] { late_fired = true; });
  e.cancel(early);
  e.run_until(2.0);
  EXPECT_FALSE(late_fired);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
}

TEST(Engine, RejectsSchedulingInThePast) {
  Engine e;
  e.schedule_at(2.0, [] {});
  e.run();
  EXPECT_THROW(e.schedule_at(1.0, [] {}), RequireError);
}

TEST(Engine, DispatchNeverCopiesHandlers) {
  // Handlers close over checkpoint Buffers and other heavyweight state;
  // the heap must move them through scheduling and dispatch, not copy.
  struct CopyProbe {
    int* copies;
    explicit CopyProbe(int* c) : copies(c) {}
    CopyProbe(const CopyProbe& o) : copies(o.copies) { ++*copies; }
    CopyProbe(CopyProbe&& o) noexcept : copies(o.copies) {}
  };
  Engine e;
  int copies = 0;
  int fired = 0;
  for (double t : {3.0, 1.0, 2.0, 1.5})
    e.schedule_at(t, [p = CopyProbe(&copies), &fired] {
      (void)p;
      ++fired;
    });
  int copies_after_scheduling = copies;
  e.run();
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(copies, copies_after_scheduling);  // zero copies during dispatch
}

TEST(Engine, RejectsNonFiniteTimes) {
  // A NaN deadline is unordered against everything: heap sifts disagree
  // about where it belongs and the queue silently corrupts. Must throw.
  Engine e;
  double nan = std::numeric_limits<double>::quiet_NaN();
  double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(e.schedule_at(nan, [] {}), RequireError);
  EXPECT_THROW(e.schedule_at(inf, [] {}), RequireError);
  EXPECT_THROW(e.schedule_at(-inf, [] {}), RequireError);
  EXPECT_THROW(e.schedule_after(nan, [] {}), RequireError);
  EXPECT_THROW(e.schedule_after(inf, [] {}), RequireError);
  EXPECT_THROW(e.schedule_after(-1.0, [] {}), RequireError);
  // The queue is still intact after the rejections.
  bool fired = false;
  e.schedule_at(1.0, [&] { fired = true; });
  e.run();
  EXPECT_TRUE(fired);
}

TEST(Engine, RunUntilCancelledEventExactlyAtBoundary) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  auto at_boundary = e.schedule_at(2.0, [&] { ++fired; });
  e.schedule_at(2.0, [&] { ++fired; });  // survivor at the same instant
  e.schedule_at(3.0, [&] { ++fired; });
  e.cancel(at_boundary);
  EXPECT_EQ(e.run_until(2.0), 2u);  // boundary-cancelled event not counted
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(e.now(), 2.0);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(EngineLanes, RunUntilBoundaryAndPersistenceLaned) {
  Engine e;
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  auto boundary = e.schedule_at(2.0, [&] { ++fired; });
  e.schedule_at(2.0, [&] { ++fired; });
  e.schedule_at(3.0, [&] { ++fired; });
  e.cancel(boundary);
  // Cancelled event exactly at the boundary t: skipped, not fired, and the
  // clock still lands exactly on t.
  EXPECT_EQ(e.run_until(2.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 2.0);
  EXPECT_EQ(e.pending(), 1u);
  // The t=3 event the first call left pending survives and fires on the
  // next call.
  EXPECT_EQ(e.run_until(4.0), 1u);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(e.now(), 4.0);
  // Empty-queue fast path: no events, the clock still advances.
  EXPECT_EQ(e.run_until(5.0), 0u);
  EXPECT_EQ(e.now(), 5.0);
}

TEST(Engine, RunUntilEmptyQueueFastPath) {
  Engine e;
  EXPECT_EQ(e.run_until(7.0), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 7.0);
  EXPECT_EQ(e.events_processed(), 0u);
  // And again from a non-zero clock with nothing scheduled since.
  EXPECT_EQ(e.run_until(9.0), 0u);
  EXPECT_DOUBLE_EQ(e.now(), 9.0);
}

TEST(Engine, CancelBacklogStaysBoundedForFiredIds) {
  // Watchdogs cancel() timer ids that often fired long ago. The tracked-id
  // set must not grow without bound over a long run.
  Engine e;
  std::vector<Engine::EventId> ids;
  for (int i = 0; i < 500; ++i)
    ids.push_back(e.schedule_at(static_cast<double>(i), [] {}));
  e.run();  // everything fires; all these ids are now stale
  for (Engine::EventId id : ids) e.cancel(id);
  EXPECT_LE(e.cancelled_backlog(), 65u);  // pruned against empty queue

  // Cancellation of genuinely pending events still works after pruning.
  bool fired = false;
  auto pending = e.schedule_after(1.0, [&] { fired = true; });
  for (Engine::EventId id : ids) e.cancel(id);  // more stale churn
  e.cancel(pending);
  e.run();
  EXPECT_FALSE(fired);
}

TEST(Engine, CancelAfterFireHammerHoldsTheDocumentedBound) {
  // Adversarial interleaving: keep a live pending population while
  // relentlessly cancelling ids that already fired. After every cancel the
  // backlog must respect the prune heuristic's own constants — it may
  // exceed the slack-factor line only until the next cancel crosses it.
  Engine e;
  std::vector<Engine::EventId> fired_ids;
  std::vector<Engine::EventId> live_ids;
  double t = 0.0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 25; ++i)
      fired_ids.push_back(e.schedule_at(t + 0.1 + i * 0.01, [] {}));
    // A standing population of far-future events keeps pending() > 0 so
    // prunes cannot rely on the empty-queue degenerate case.
    for (int i = 0; i < 5; ++i)
      live_ids.push_back(e.schedule_at(t + 1000.0, [] {}));
    t += 1.0;
    e.run_until(t);  // the 25 near events fire; the far ones stay pending
    for (Engine::EventId id : fired_ids) e.cancel(id);  // all stale now
    std::size_t bound =
        std::max(Engine::kCancelPruneMinBacklog,
                 Engine::kCancelPruneSlackFactor * e.pending()) +
        1;  // +1: the cancel that crosses the line is counted before pruning
    EXPECT_LE(e.cancelled_backlog(), bound) << "round " << round;
  }
  // The far-future population was never cancelled: it must all still fire.
  std::size_t before = e.events_processed();
  e.run();
  EXPECT_EQ(e.events_processed() - before, live_ids.size());
}

}  // namespace
}  // namespace acr::rt
