#include "sim/event_queue.h"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace fiveg::sim {

EventId EventQueue::schedule(Time at, const char* label, Callable action) {
  return insert(Key{at, seq_++}, label, std::move(action));
}

void EventQueue::schedule_reserved(Key key, const char* label,
                                   Callable action) {
  assert(reserved_ > 0);
  // The exactness invariant: a key enters the heap only while it is
  // greater than the key being popped, or the pop order would change.
  assert(key.at > last_popped_.at ||
         (key.at == last_popped_.at && key.seq > last_popped_.seq));
  --reserved_;
  insert(key, label, std::move(action));
}

EventId EventQueue::insert(Key key, const char* label, Callable action) {
  std::uint32_t slot;
  if (free_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.label = label;
  s.at = key.at;
  s.seq = key.seq;
  s.live = true;
  heap_.push(HeapItem{key.at, key.seq, slot, s.gen});
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

void EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffU);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return;  // never-issued handle
  Slot& s = slots_[slot];
  // Generation mismatch: the event already fired (or was cancelled) and
  // the slot moved on. The stale-id no-op costs nothing and stores nothing.
  if (!s.live || s.gen != gen) return;
  ++cancelled_;
  s.action.reset();  // release captures immediately
  s.label = nullptr;
  s.live = false;
  ++s.gen;  // invalidates the id and the pending heap item
  free_.push_back(slot);
}

EventId EventQueue::reschedule(EventId id, Time at) {
  const auto slot = static_cast<std::uint32_t>(id & 0xffffffffU);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || !slots_[slot].live ||
      slots_[slot].gen != gen) {
    throw std::logic_error("EventQueue::reschedule: event is not pending");
  }
  Slot& s = slots_[slot];
  if (at >= s.at) {
    // Later key: the heap item keeps its smaller key and is re-pushed
    // under this one when it surfaces (skip_stale).
    s.at = at;
    s.seq = seq_++;
    return id;
  }
  // Earlier: the heap item would surface too late. Cancel and schedule,
  // reusing the slot exactly as cancel() then schedule() would (LIFO
  // free list); the bumped generation strands the old heap item.
  ++cancelled_;
  ++s.gen;
  s.at = at;
  s.seq = seq_++;
  heap_.push(HeapItem{s.at, s.seq, slot, s.gen});
  return (static_cast<EventId>(s.gen) << 32) | slot;
}

void EventQueue::skip_stale() const {
  while (!heap_.empty()) {
    const HeapItem& it = heap_.top();
    const Slot& s = slots_[it.slot];
    if (s.live && s.gen == it.gen) {
      if (s.seq == it.seq) return;
      const HeapItem moved{s.at, s.seq, it.slot, it.gen};
      heap_.pop();
      heap_.push(moved);
    } else {
      heap_.pop();
    }
  }
}

bool EventQueue::empty() const noexcept {
  skip_stale();
  return heap_.empty();
}

Time EventQueue::next_time() const {
  skip_stale();
  assert(!heap_.empty());
  return heap_.top().at;
}

EventQueue::Popped EventQueue::pop() {
  skip_stale();
  assert(!heap_.empty());
  const HeapItem it = heap_.top();
  heap_.pop();
  last_popped_ = Key{it.at, it.seq};
  Slot& s = slots_[it.slot];
  // Detach the callback before it can run: it may schedule into (or cancel
  // within) this queue, including its own — now stale — id.
  Popped out{it.at, s.label, std::move(s.action)};
  s.action.reset();
  s.label = nullptr;
  s.live = false;
  ++s.gen;
  free_.push_back(it.slot);
  return out;
}

Time EventQueue::pop_and_run() {
  Popped e = pop();
  e.action();
  return e.at;
}

}  // namespace fiveg::sim
