// Deterministic virtual-time event engine: one binary min-heap.
//
// The tasklet runtime executes *real* application code (real arrays, real
// serialization, real bit flips) but advances a virtual clock through
// discrete events, so a "30-minute, 512-core" experiment (Fig. 12) runs in
// seconds of wall time and is bit-for-bit reproducible. Ties in event time
// are broken by insertion order: EventIds increase strictly and are never
// recycled (cancellation included), so equal-deadline events — notably the
// reliable transport's retransmit timers, which all land on identical
// deadlines when several frames are sent from one event — fire in the exact
// order they were scheduled, on every platform, on every run.
//
// Handlers run one at a time, in global (time, id) order (§16 of
// DESIGN.md): they mutate shared protocol state (trace log, in-flight
// counters, the jitter RNG stream), so serialized dispatch *is* the
// determinism contract.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "common/require.h"

namespace acr::rt {

class Engine {
 public:
  using Handler = std::function<void()>;
  using EventId = std::uint64_t;

  /// cancel() sweeps the tracked-cancellation set once it exceeds
  /// kCancelPruneMinBacklog ids AND kCancelPruneSlackFactor times the
  /// pending-event count — below that, the set is provably bounded by the
  /// ids a prune could not discard anyway.
  static constexpr std::size_t kCancelPruneMinBacklog = 64;
  static constexpr std::size_t kCancelPruneSlackFactor = 2;

  Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  double now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `time` (>= now, finite).
  EventId schedule_at(double time, Handler fn);

  /// Schedule `fn` after a non-negative delay.
  EventId schedule_after(double delay, Handler fn) {
    ACR_REQUIRE(delay >= 0.0, "negative delay");
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Cancel a pending event. Cancelling an already-fired or unknown id is a
  /// no-op (timers race with the events that obsolete them).
  void cancel(EventId id);

  /// Execute the next event. Returns false when the queue is empty.
  bool step();

  /// Run until the queue drains.
  void run();

  /// Run events with time <= t, then set now() = t. Returns events fired.
  std::size_t run_until(double t);

  std::size_t events_processed() const { return processed_; }
  std::size_t pending() const { return heap_.size(); }
  /// Cancelled ids still being tracked (bounded; see prune_cancelled).
  std::size_t cancelled_backlog() const { return cancelled_.size(); }

 private:
  struct Event {
    double time;
    EventId id;
    Handler fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;  // FIFO among ties
    }
  };

  /// Pop the earliest event off the heap, MOVING it out (std::pop_heap
  /// rotates it to the back, where it is not const like priority_queue's
  /// top()). Handlers — and any checkpoint Buffers their closures hold —
  /// are never copied on the hot dispatch path.
  Event pop_event();

  /// Drop tracked cancellations that no pending event matches: their event
  /// already fired (or never existed), so they can never be observed again.
  /// Keeps cancelled_ bounded by the pending-event count even when callers
  /// cancel() already-fired timer ids forever. O(pending), reserve-exact.
  void prune_cancelled();

  // Binary min-heap over Event (std::push_heap/pop_heap with Later).
  std::vector<Event> heap_;
  std::unordered_set<EventId> cancelled_;
  double now_ = 0.0;
  EventId next_id_ = 1;
  std::size_t processed_ = 0;
};

}  // namespace acr::rt
