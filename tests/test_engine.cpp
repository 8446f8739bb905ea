// Virtual-time event engine tests: (time, id) dispatch order, cancellation,
// run_until boundaries, the handler-slab bound, and a reference model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
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
  // Watchdogs cancel() timer ids that often fired long ago. Such a cancel
  // must store nothing, and the handler slab never holds more slots than
  // the queue's peak pending count.
  Engine e;
  std::vector<Engine::EventId> ids;
  for (int i = 0; i < 500; ++i)
    ids.push_back(e.schedule_at(static_cast<double>(i), [] {}));
  std::size_t peak = e.pending();
  e.run();  // everything fires; all these ids are now stale
  std::size_t slots = e.slot_capacity();
  EXPECT_LE(slots, peak);
  for (Engine::EventId id : ids) e.cancel(id);
  EXPECT_EQ(e.slot_capacity(), slots);
  EXPECT_EQ(e.pending(), 0u);

  // Cancellation of genuinely pending events still works, and stale ids
  // whose slots the new events reuse leave those events alone.
  bool cancelled_fired = false;
  bool survivor_fired = false;
  auto doomed = e.schedule_after(1.0, [&] { cancelled_fired = true; });
  e.schedule_after(1.0, [&] { survivor_fired = true; });
  for (Engine::EventId id : ids) e.cancel(id);  // more stale churn
  e.cancel(doomed);
  e.run();
  EXPECT_FALSE(cancelled_fired);
  EXPECT_TRUE(survivor_fired);
  EXPECT_EQ(e.slot_capacity(), slots);  // both events reused freed slots
}

TEST(Engine, CancelAfterFireHammerHoldsTheDocumentedBound) {
  // Adversarial interleaving: keep a live pending population while
  // relentlessly cancelling ids that already fired. Those cancels change
  // nothing — not the slab, not the queue — and the slab never holds more
  // slots than the peak pending count.
  Engine e;
  std::vector<Engine::EventId> fired_ids;
  std::vector<Engine::EventId> live_ids;
  std::size_t peak = 0;
  double t = 0.0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 25; ++i)
      fired_ids.push_back(e.schedule_at(t + 0.1 + i * 0.01, [] {}));
    // A standing population of far-future events keeps pending() > 0.
    for (int i = 0; i < 5; ++i)
      live_ids.push_back(e.schedule_at(t + 1000.0, [] {}));
    peak = std::max(peak, e.pending());
    t += 1.0;
    e.run_until(t);  // the 25 near events fire; the far ones stay pending
    std::size_t slots = e.slot_capacity();
    std::size_t pending = e.pending();
    for (Engine::EventId id : fired_ids) e.cancel(id);  // all stale now
    EXPECT_EQ(e.slot_capacity(), slots) << "round " << round;
    EXPECT_EQ(e.pending(), pending) << "round " << round;
    EXPECT_LE(e.slot_capacity(), peak) << "round " << round;
  }
  // The far-future population was never cancelled: it must all still fire.
  std::size_t before = e.events_processed();
  e.run();
  EXPECT_EQ(e.events_processed() - before, live_ids.size());
}

// Reference model for EngineModel: an unsorted list scanned for the
// earliest (time, sequence) entry on every step. Same API as Engine.
class NaiveQueue {
 public:
  using EventId = std::uint64_t;

  double now() const { return now_; }
  std::size_t events_processed() const { return processed_; }

  EventId schedule_at(double time, std::function<void()> fn) {
    events_.push_back({time, next_id_, std::move(fn)});
    return next_id_++;
  }
  EventId schedule_after(double delay, std::function<void()> fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }
  void cancel(EventId id) {
    std::erase_if(events_, [id](const Entry& e) { return e.id == id; });
  }
  bool step() {
    if (events_.empty()) return false;
    auto it = earliest();
    Entry e = std::move(*it);
    events_.erase(it);
    now_ = e.time;
    ++processed_;
    e.fn();
    return true;
  }
  void run() {
    while (step()) {
    }
  }
  std::size_t run_until(double t) {
    std::size_t fired = 0;
    for (auto it = earliest(); it != events_.end() && it->time <= t;
         it = earliest()) {
      step();
      ++fired;
    }
    now_ = t;
    return fired;
  }

 private:
  struct Entry {
    double time;
    EventId id;
    std::function<void()> fn;
  };
  std::vector<Entry>::iterator earliest() {
    return std::min_element(
        events_.begin(), events_.end(), [](const Entry& a, const Entry& b) {
          return a.time < b.time || (a.time == b.time && a.id < b.id);
        });
  }
  std::vector<Entry> events_;
  double now_ = 0.0;
  EventId next_id_ = 1;
  std::size_t processed_ = 0;
};

/// Drives a queue through one seeded interleaving of schedule_at,
/// schedule_after, cancel (of pending, fired, cancelled and reused-slot
/// ids), step, run_until, and handlers that schedule and cancel more.
/// Everything the queue does is logged; two queues that implement the same
/// ordering produce the same log.
template <typename Queue>
struct Interleaving {
  Queue q;
  std::vector<typename Queue::EventId> ids;  ///< by label
  std::vector<std::string> log;

  // Deadlines on a coarse grid so that ties are common.
  static double delay(std::uint32_t r) { return 0.25 * (r % 5); }

  void schedule(double time) {
    int label = static_cast<int>(ids.size());
    ids.push_back(q.schedule_at(time, [this, label] { fire(label); }));
  }
  void fire(int label) {
    log.push_back("fire " + std::to_string(label) + " @" +
                  std::to_string(q.now()));
    // Handler behaviour is a pure function of the label.
    std::uint32_t h = static_cast<std::uint32_t>(label) * 2654435761u;
    if (h % 3 == 0) schedule(q.now() + delay(h >> 8));
    if (h % 7 == 0 && label > 0) q.cancel(ids[(h >> 4) % ids.size()]);
  }
  void play(std::uint64_t seed) {
    Pcg32 rng(seed, 17);
    for (int op = 0; op < 120; ++op) {
      std::uint32_t r = rng.next();
      switch (r % 8) {
        case 0:
        case 1:
          schedule(q.now() + delay(r >> 8));
          break;
        case 2: {
          int label = static_cast<int>(ids.size());
          ids.push_back(q.schedule_after(delay(r >> 8),
                                         [this, label] { fire(label); }));
          break;
        }
        case 3:
        case 4:
          if (!ids.empty()) q.cancel(ids[(r >> 8) % ids.size()]);
          break;
        case 5:
          log.push_back("step " + std::to_string(q.step()));
          break;
        case 6: {
          std::size_t n = q.run_until(q.now() + delay(r >> 8));
          log.push_back("until " + std::to_string(n));
          break;
        }
        case 7:  // ids never issued: 0 and one past the newest
          q.cancel(0);
          if (!ids.empty()) q.cancel(ids.back() + 1);
          break;
      }
    }
    q.run();
    log.push_back("processed " + std::to_string(q.events_processed()) +
                  " now " + std::to_string(q.now()));
  }
};

TEST(EngineModel, MatchesNaiveQueue) {
  // Cancelling an id that already fired, after a new event took over its
  // slot, must leave the new occupant alone.
  {
    Engine e;
    bool second_fired = false;
    Engine::EventId first = e.schedule_at(1.0, [] {});
    e.run();
    e.schedule_at(2.0, [&] { second_fired = true; });
    EXPECT_EQ(e.slot_capacity(), 1u);  // the second event reused the slot
    e.cancel(first);
    e.run();
    EXPECT_TRUE(second_fired);
  }
  // Random interleavings against the reference model.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Interleaving<Engine> engine;
    Interleaving<NaiveQueue> model;
    engine.play(seed);
    model.play(seed);
    ASSERT_EQ(engine.log, model.log) << "seed " << seed;
    ASSERT_EQ(engine.q.events_processed(), model.q.events_processed());
  }
}

}  // namespace
}  // namespace acr::rt
