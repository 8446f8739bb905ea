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
  EventId id = next_id_++;
  heap_.push_back(Event{time, id, std::move(fn)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return id;
}

Engine::Event Engine::pop_event() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

void Engine::cancel(EventId id) {
  if (id == 0 || id >= next_id_) return;  // never issued
  cancelled_.insert(id);
  // Ids of already-fired events accumulate here (watchdogs cancel stale
  // timers long after they fired). Sweep once the backlog clearly exceeds
  // what the pending set could account for.
  if (cancelled_.size() > kCancelPruneMinBacklog &&
      cancelled_.size() > kCancelPruneSlackFactor * pending())
    prune_cancelled();
}

void Engine::prune_cancelled() {
  std::unordered_set<EventId> live;
  // Reserve-exact: a survivor must be both tracked and pending, so the
  // smaller of the two counts bounds the result (cancelled_.size() alone
  // over-reserved by the whole fired-id backlog being pruned away).
  live.reserve(std::min(cancelled_.size(), pending()));
  for (const Event& ev : heap_)
    if (cancelled_.count(ev.id) > 0) live.insert(ev.id);
  cancelled_ = std::move(live);
}

bool Engine::step() {
  while (!heap_.empty()) {
    Event ev = pop_event();
    auto it = cancelled_.find(ev.id);
    if (it != cancelled_.end()) {
      cancelled_.erase(it);
      continue;
    }
    now_ = ev.time;
    ++processed_;
    ev.fn();
    return true;
  }
  return false;
}

void Engine::run() {
  while (step()) {
  }
}

std::size_t Engine::run_until(double t) {
  ACR_REQUIRE(t >= now_, "cannot run backwards");
  std::size_t fired = 0;
  while (!heap_.empty()) {
    // Drop cancelled events first so the heap front is a live event and
    // step() cannot skip past `t` to a later one.
    auto it = cancelled_.find(heap_.front().id);
    if (it != cancelled_.end()) {
      cancelled_.erase(it);
      pop_event();
      continue;
    }
    if (heap_.front().time > t) break;
    if (step()) ++fired;
  }
  now_ = t;
  return fired;
}

}  // namespace acr::rt
