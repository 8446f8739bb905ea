// Deterministic virtual-time event engine (§16 of DESIGN.md).
//
// The tasklet runtime executes *real* application code (real arrays, real
// serialization, real bit flips) but advances a virtual clock through
// discrete events, so a "30-minute, 512-core" experiment (Fig. 12) runs in
// seconds of wall time and is bit-for-bit reproducible.
//
// A 4-ary min-heap of 16-byte {time, id} keys sits over a slab of handler
// slots; sifts move keys, never closures. An EventId is a strictly
// increasing sequence number in the high bits and the event's slot in the
// low kSlotBits, so (time, id) order is (time, sequence) order: ties fire
// in scheduling order, on every platform, on every run. Ids are never
// reissued. Cancellation is a generation check: a slot records its
// occupant's id, cancel() frees it only on a match, and a popped key whose
// slot no longer names it is dropped. Cancelling a fired id stores nothing.
//
// Handlers run one at a time, in global (time, id) order: they mutate
// shared protocol state (trace log, in-flight counters, the jitter RNG
// stream), so serialized dispatch *is* the determinism contract.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/require.h"
#include "rt/slot_pool.h"

namespace acr::rt {

class Engine {
 public:
  using Handler = std::function<void()>;
  using EventId = std::uint64_t;

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
  /// Keys in the heap, including cancelled events not yet dropped.
  std::size_t pending() const { return heap_.size(); }
  /// Handler slots ever used; never more than the peak of pending().
  std::size_t slot_capacity() const { return slots_.used(); }

 private:
  static constexpr int kSlotBits = 24;
  static constexpr EventId kSlotMask = (EventId{1} << kSlotBits) - 1;
  static constexpr std::size_t kArity = 4;

  struct Key { double time; EventId id; };
  struct Slot { EventId id = 0; Handler fn; };  ///< id: occupant's, 0 if free

  static bool before(const Key& a, const Key& b) {
    return a.time < b.time || (a.time == b.time && a.id < b.id);
  }
  /// Drop cancelled keys off the heap front; true if a live event is left.
  bool live_front();
  /// Free a live event's slot and hand back its handler.
  Handler vacate(std::size_t slot) {
    slots_[slot].id = 0;
    return slots_.take(static_cast<std::uint32_t>(slot)).fn;
  }
  void push_key(Key k);
  Key pop_key();

  std::vector<Key> heap_;
  SlotPool<Slot> slots_;
  double now_ = 0.0;
  EventId next_seq_ = 1;
  std::size_t processed_ = 0;
};

}  // namespace acr::rt
