// A deterministic pending-event set: a min-heap keyed on (time, sequence
// number) so that events scheduled for the same instant fire in scheduling
// order.
//
// Layout: the heap holds small POD items (time, sequence, slot reference);
// the callables live in a slot arena indexed by the heap items. An EventId
// is (slot generation << 32) | slot index, so cancellation is O(1): it
// destroys the action immediately (releasing its captures), bumps the
// slot's generation — which simultaneously invalidates the id, invalidates
// the heap item (reaped lazily when it surfaces), and recycles the slot.
// Cancelling an already-fired or unknown id compares generations and does
// nothing, so no per-id bookkeeping ever accumulates: total storage is
// bounded by the high-water mark of concurrently pending events.
//
// Two ways to keep the heap small without changing the pop order:
//
//  - reschedule() moves a pending event. A later key is written into the
//    slot only; the heap item keeps the old, smaller key, and when it
//    surfaces it is re-pushed under the slot's key instead of running. A
//    protocol timer re-armed on every packet thus holds one heap item, not
//    one dead item per re-arm.
//  - reserve() hands out the key of an event that will be inserted later
//    (schedule_reserved). A caller that delivers in key order — a link's
//    in-order delivery FIFO — keeps only its head in the heap and inserts
//    each successor when its predecessor runs.
//
// Both are exact because keys are unique (every key takes the next
// sequence number, exactly as a plain schedule() would) and a key only
// ever enters the heap while it is greater than the key being popped: the
// set of runnable keys at every pop, and so the pop order, is what plain
// cancel + schedule would give.
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/callable.h"
#include "sim/time.h"

namespace fiveg::sim {

/// Opaque handle identifying a scheduled event; usable to cancel it.
using EventId = std::uint64_t;

/// Priority queue of timed callbacks with stable same-time ordering.
class EventQueue {
 public:
  /// Schedules `action` to fire at absolute time `at`. Returns a handle
  /// that can be passed to `cancel`.
  EventId schedule(Time at, Callable action) {
    return schedule(at, nullptr, std::move(action));
  }

  /// Labelled variant for the observability layer: `label` buckets the
  /// event in profiling reports and traces. It must point at storage that
  /// outlives the queue (string literals, in practice); null means
  /// unlabelled. Carrying the pointer costs unlabelled callers nothing.
  EventId schedule(Time at, const char* label, Callable action);

  /// Cancels a pending event. Cancelling an already-fired or unknown
  /// handle is a harmless no-op (the common race in protocol timers).
  void cancel(EventId id);

  /// Moves pending event `id` to time `at`, keeping its action and label,
  /// and returns its handle (`id` itself unless the event moved earlier).
  /// The event takes a new sequence number, so it orders exactly as if it
  /// had been cancelled and scheduled anew: at or after its old time the
  /// key is re-written in place; strictly earlier, it is cancelled and
  /// scheduled. Throws std::logic_error if `id` is not pending.
  EventId reschedule(EventId id, Time at);

  /// The ordering key of an event: time, then sequence number.
  struct Key {
    Time at;
    std::uint64_t seq;
  };

  /// Takes the key an event scheduled at `at` now would get, without
  /// inserting anything: the event counts as pending (see size()) until
  /// schedule_reserved() inserts it. The caller must insert it before any
  /// event with a later key is popped — in practice by holding it behind a
  /// pending event with a smaller key and inserting it when that one runs.
  [[nodiscard]] Key reserve(Time at) noexcept {
    ++reserved_;
    return Key{at, seq_++};
  }

  /// Inserts `action` under a key taken by reserve().
  void schedule_reserved(Key key, const char* label, Callable action);

  /// True if no runnable (non-cancelled) events remain.
  [[nodiscard]] bool empty() const noexcept;

  /// Time of the earliest runnable event. Precondition: !empty().
  [[nodiscard]] Time next_time() const;

  /// A popped event, detached from the queue.
  struct Popped {
    Time at;
    const char* label;  // null when unlabelled
    Callable action;
  };

  /// Pops the earliest runnable event without running it, so the caller can
  /// advance its clock before invoking the action. Precondition: !empty().
  [[nodiscard]] Popped pop();

  /// Pops and runs the earliest runnable event; returns its time.
  /// Precondition: !empty().
  Time pop_and_run();

  /// Number of events ever scheduled (diagnostic).
  [[nodiscard]] std::uint64_t scheduled_count() const noexcept {
    return seq_;
  }

  /// Number of live events actually cancelled (stale-id no-ops excluded);
  /// with scheduled_count() this is the event-churn pair the self-profiler
  /// reports per run.
  [[nodiscard]] std::uint64_t cancelled_count() const noexcept {
    return cancelled_;
  }

  /// Heap occupancy plus reserved events not yet inserted: an upper bound
  /// on the runnable-event count (lazily reaped cancelled items are
  /// included until they surface). Used for queue-depth high-water marks,
  /// where the bound is tight enough.
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() + reserved_;
  }

  /// Number of action slots ever allocated: the high-water mark of
  /// concurrently pending events. Stays flat however many ids are
  /// cancelled — the regression guard for the old cancelled-set leak.
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return slots_.size();
  }

 private:
  struct HeapItem {
    Time at;
    std::uint64_t seq;   // schedule order: FIFO tie-break at equal times
    std::uint32_t slot;  // index into slots_
    std::uint32_t gen;   // slot generation at schedule time
    friend bool operator>(const HeapItem& a, const HeapItem& b) noexcept {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  struct Slot {
    Callable action;
    const char* label = nullptr;
    // The event's current key. A heap item whose seq differs was left
    // behind by reschedule() and carries an older, smaller key.
    Time at = 0;
    std::uint64_t seq = 0;
    std::uint32_t gen = 0;
    bool live = false;
  };

  // Pushes a heap item for a fresh slot holding `action` under `key`.
  EventId insert(Key key, const char* label, Callable action);
  // Brings a runnable item to the top: drops items whose slot was
  // cancelled (generation mismatch) and re-pushes items that reschedule()
  // re-keyed under the slot's key, running nothing.
  void skip_stale() const;

  mutable std::priority_queue<HeapItem, std::vector<HeapItem>,
                              std::greater<>>
      heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // recycled slot indices (LIFO)
  std::uint64_t seq_ = 0;
  std::uint64_t cancelled_ = 0;
  std::size_t reserved_ = 0;  // keys reserved and not yet inserted
  Key last_popped_{0, 0};     // checked by schedule_reserved()
};

}  // namespace fiveg::sim
