#include "rt/engine.h"

#include <algorithm>
#include <cmath>

namespace acr::rt {

Engine::EventId Engine::schedule_at(double time, Handler fn) {
  // A NaN deadline would silently corrupt every heap comparison below it
  // (NaN is unordered, so sift paths disagree); infinities are equally
  // meaningless as virtual times. Reject both loudly.
  ACR_REQUIRE(std::isfinite(time), "event time must be finite");
  ACR_REQUIRE(time >= now_, "cannot schedule in the past");
  ACR_REQUIRE(next_seq_ >> (64 - kSlotBits) == 0, "event ids exhausted");
  ACR_REQUIRE(slots_.used() <= kSlotMask, "too many pending events");
  std::uint32_t slot = slots_.put(Slot{0, std::move(fn)});
  EventId id = (next_seq_++ << kSlotBits) | slot;
  slots_[slot].id = id;
  push_key(Key{time, id});
  return id;
}

void Engine::cancel(EventId id) {
  std::size_t slot = id & kSlotMask;
  if (id >> kSlotBits == 0 || slot >= slots_.used() || slots_[slot].id != id)
    return;  // never issued, already fired, or already cancelled
  vacate(slot);
}

void Engine::push_key(Key k) {
  std::size_t i = heap_.size();
  heap_.push_back(k);
  while (i > 0) {
    std::size_t parent = (i - 1) / kArity;
    if (!before(k, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = k;
}

Engine::Key Engine::pop_key() {
  Key top = heap_.front();
  Key last = heap_.back();
  heap_.pop_back();
  std::size_t n = heap_.size();
  std::size_t i = 0;
  for (std::size_t first = 1; first < n; first = kArity * i + 1) {
    std::size_t best = first;
    for (std::size_t c = first + 1; c < std::min(first + kArity, n); ++c)
      if (before(heap_[c], heap_[best])) best = c;
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  if (n > 0) heap_[i] = last;
  return top;
}

bool Engine::live_front() {
  while (!heap_.empty() &&
         slots_[heap_.front().id & kSlotMask].id != heap_.front().id)
    pop_key();  // cancelled: its slot no longer names it
  return !heap_.empty();
}

bool Engine::step() {
  if (!live_front()) return false;
  Key k = pop_key();
  // Take the handler out first: it may schedule events that reuse the
  // slot. Meanwhile, start fetching the next event's slot.
  Handler fn = vacate(k.id & kSlotMask);
  if (!heap_.empty())
    __builtin_prefetch(&slots_[heap_.front().id & kSlotMask]);
  now_ = k.time;
  ++processed_;
  fn();
  return true;
}

void Engine::run() {
  while (step()) {
  }
}

std::size_t Engine::run_until(double t) {
  ACR_REQUIRE(t >= now_, "cannot run backwards");
  std::size_t fired = 0;
  // Cancelled keys go first, so step() cannot skip past `t` to a later one.
  for (; live_front() && heap_.front().time <= t; ++fired) step();
  now_ = t;
  return fired;
}

}  // namespace acr::rt
