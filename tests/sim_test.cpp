// Unit tests for the discrete-event kernel: ordering, cancellation,
// determinism of the clock, and the RNG substream contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace fiveg::sim {
namespace {

TEST(TimeTest, ConversionsRoundTrip) {
  EXPECT_EQ(from_seconds(1.5), 1500 * kMillisecond);
  EXPECT_DOUBLE_EQ(to_seconds(250 * kMillisecond), 0.25);
  EXPECT_DOUBLE_EQ(to_millis(3 * kSecond), 3000.0);
  EXPECT_EQ(from_millis(12.5), 12'500'000);
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameTimeFiresInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    q.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, CancelledEventsDoNotRun) {
  EventQueue q;
  int ran = 0;
  const EventId a = q.schedule(10, [&] { ++ran; });
  q.schedule(20, [&] { ++ran; });
  q.cancel(a);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(ran, 1);
}

TEST(EventQueueTest, CancelUnknownOrFiredIsNoop) {
  EventQueue q;
  const EventId a = q.schedule(1, [] {});
  q.pop_and_run();
  q.cancel(a);           // already fired
  q.cancel(9999);        // never existed
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelHeadThenEmpty) {
  EventQueue q;
  const EventId a = q.schedule(10, [] {});
  q.cancel(a);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, CancelDuringCallbackAffectsPendingOnly) {
  EventQueue q;
  int ran = 0;
  EventId self = 0;
  EventId victim = 0;
  victim = q.schedule(20, [&] { ++ran; });
  self = q.schedule(10, [&] {
    q.cancel(victim);  // still pending: must not run
    q.cancel(self);    // the running event's own id: harmless no-op
    ++ran;
  });
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(ran, 1);
}

TEST(EventQueueTest, CancellingFiredIdsKeepsInternalStateBounded) {
  // Regression: the lazy-cancellation design kept every cancelled id in a
  // hash set, so cancelling ids that had already fired (the DRX/HARQ/RTO
  // timer pattern) grew internal state without bound.
  EventQueue q;
  Time t = 0;
  std::uint64_t fired = 0;
  EventId last = q.schedule(++t, [&] { ++fired; });
  for (int i = 0; i < 20'000; ++i) {
    q.pop_and_run();
    q.cancel(last);  // already fired: must be a stateless no-op
    last = q.schedule(++t, [&] { ++fired; });
  }
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(fired, 20'001U);
  // Only one event is ever pending, so the slot arena must stay at O(1)
  // however many stale cancels arrived.
  EXPECT_LE(q.slot_capacity(), 2U);
  EXPECT_EQ(q.size(), 0U);
}

TEST(EventQueueTest, StaleIdCannotCancelRecycledSlot) {
  EventQueue q;
  int ran = 0;
  const EventId a = q.schedule(1, [&] { ++ran; });
  q.pop_and_run();
  // The new event may reuse a's slot; the fired id must not touch it.
  q.schedule(2, [&] { ++ran; });
  q.cancel(a);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(ran, 2);
}

TEST(CallableTest, MoveOnlyAndLargeCapturesSurviveMoves) {
  auto owned = std::make_unique<int>(7);
  int got = 0;
  Callable small([&got, p = std::move(owned)] { got = *p; });
  Callable small_moved = std::move(small);
  small_moved();
  EXPECT_EQ(got, 7);

  std::array<double, 16> big{};  // 128 bytes: exceeds the inline buffer
  big[15] = 3.5;
  double out = 0;
  Callable large([big, &out] { out = big[15]; });
  Callable large_moved = std::move(large);
  large_moved();
  EXPECT_DOUBLE_EQ(out, 3.5);
}

TEST(SimulatorTest, ClockFollowsEvents) {
  Simulator s;
  Time seen = -1;
  s.schedule_at(42 * kMillisecond, [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, 42 * kMillisecond);
  EXPECT_EQ(s.now(), 42 * kMillisecond);
}

TEST(SimulatorTest, ScheduleInIsRelative) {
  Simulator s;
  std::vector<Time> stamps;
  s.schedule_in(10, [&] {
    stamps.push_back(s.now());
    s.schedule_in(5, [&] { stamps.push_back(s.now()); });
  });
  s.run();
  EXPECT_EQ(stamps, (std::vector<Time>{10, 15}));
}

TEST(SimulatorTest, RunUntilAdvancesClockWhenIdle) {
  Simulator s;
  s.run_until(kSecond);
  EXPECT_EQ(s.now(), kSecond);
}

TEST(SimulatorTest, RunUntilDoesNotRunLaterEvents) {
  Simulator s;
  bool late = false;
  s.schedule_at(2 * kSecond, [&] { late = true; });
  s.run_until(kSecond);
  EXPECT_FALSE(late);
  s.run_until(3 * kSecond);
  EXPECT_TRUE(late);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(i, [&, i] {
      ++count;
      if (i == 3) s.stop();
    });
  }
  s.run();
  EXPECT_EQ(count, 3);
  s.run();  // resumes
  EXPECT_EQ(count, 10);
}

TEST(SimulatorTest, PastScheduleClampsToNow) {
  Simulator s;
  Time seen = -1;
  s.schedule_at(100, [&] {
    s.schedule_at(5, [&] { seen = s.now(); });  // "in the past"
  });
  s.run();
  EXPECT_EQ(seen, 100);
}

TEST(EventQueueTest, PoppedCarriesLabel) {
  EventQueue q;
  q.schedule(5, "my.label", [] {});
  q.schedule(6, [] {});
  const EventQueue::Popped a = q.pop();
  ASSERT_NE(a.label, nullptr);
  EXPECT_STREQ(a.label, "my.label");
  const EventQueue::Popped b = q.pop();
  EXPECT_EQ(b.label, nullptr);  // unlabelled overload stays label-free
}

TEST(EventQueueTest, SizeIsUpperBoundOnPending) {
  EventQueue q;
  q.schedule(1, [] {});
  const EventId b = q.schedule(2, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(b);
  // Lazily-cancelled entries may still be counted until skipped over.
  EXPECT_GE(q.size(), 1u);
  q.pop_and_run();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, RescheduleLaterRunsOnceAtNewTime) {
  EventQueue q;
  std::vector<int> order;
  const EventId timer = q.schedule(10, [&] { order.push_back(0); });
  q.schedule(20, [&] { order.push_back(1); });
  EXPECT_EQ(q.reschedule(timer, 20), timer);  // later: re-keyed in place
  EXPECT_EQ(q.reschedule(timer, 30), timer);
  q.schedule(30, [&] { order.push_back(2); });
  EXPECT_EQ(q.size(), 3u);  // one heap item for the timer, not three
  std::vector<Time> times;
  while (!q.empty()) times.push_back(q.pop_and_run());
  // The timer took its key at 30 before the other event at 30 was
  // scheduled, so it runs first.
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
  EXPECT_EQ(times, (std::vector<Time>{20, 30, 30}));
  EXPECT_EQ(q.scheduled_count(), 5u);
  EXPECT_EQ(q.cancelled_count(), 0u);
}

TEST(EventQueueTest, RescheduleEarlierCancelsAndSchedules) {
  EventQueue q;
  std::vector<int> order;
  const EventId timer = q.schedule(50, [&] { order.push_back(0); });
  q.schedule(20, [&] { order.push_back(1); });
  const EventId moved = q.reschedule(timer, 10);
  EXPECT_NE(moved, timer);
  q.cancel(timer);  // the old handle is stale: no-op
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_EQ(q.cancelled_count(), 1u);
  EXPECT_THROW(q.reschedule(moved, 60), std::logic_error);  // fired
}

TEST(EventQueueTest, ReservedKeysCountAsPending) {
  EventQueue q;
  std::vector<int> order;
  const EventQueue::Key a = q.reserve(10);
  q.schedule(10, [&] { order.push_back(1); });
  EXPECT_EQ(q.size(), 2u);  // one inserted, one reserved
  q.schedule_reserved(a, "chain", [&] { order.push_back(0); });
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{0, 1}));  // reserved first: older seq
  EXPECT_EQ(q.scheduled_count(), 2u);
}

// Randomized equivalence: an EventQueue driven through re-keyed timers
// (reschedule) and reserved-key delivery chains pops exactly the sequence
// a reference queue doing plain cancel + schedule pops, with equal-time
// ties everywhere, and takes the same number of sequence numbers.
class EventCoreEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventCoreEquivalenceTest, MatchesCancelAndScheduleReference) {
  using Fired = std::tuple<Time, std::string, int>;
  // Reference: every event is in an ordered map from the start.
  struct Reference {
    std::map<std::pair<Time, std::uint64_t>, std::pair<std::string, int>>
        events;
    std::uint64_t seq = 0;
    std::pair<Time, std::uint64_t> schedule(Time at, std::string label,
                                            int payload) {
      const std::pair<Time, std::uint64_t> key{at, seq++};
      events.emplace(key, std::make_pair(std::move(label), payload));
      return key;
    }
  } ref;

  constexpr int kTimers = 6;
  constexpr int kChains = 3;
  EventQueue q;
  Rng r(GetParam());
  Time now = 0;
  std::vector<Fired> got;
  std::vector<Fired> want;

  struct Timer {
    bool pending = false;
    EventId id = 0;
    std::pair<Time, std::uint64_t> ref_key;
  };
  std::array<Timer, kTimers> timers{};
  struct Chain {
    std::deque<std::pair<int, EventQueue::Key>> fifo;
    Time last_at = 0;
    int next_payload = 0;
  };
  std::array<Chain, kChains> chains{};
  int plain_payload = 0;

  // A few distinct offsets so that many events share a time.
  const auto later = [&] { return now + 5 * r.uniform_int(0, 4); };
  std::function<void(int)> insert_head = [&](int c) {
    const auto [payload, key] = chains[c].fifo.front();
    q.schedule_reserved(key, "chain", [&, c, payload = payload] {
      got.emplace_back(now, "chain", c * 100000 + payload);
      chains[c].fifo.pop_front();
      if (!chains[c].fifo.empty()) insert_head(c);
    });
  };

  for (int step = 0; step < 4000; ++step) {
    const auto op = r.uniform_int(0, 9);
    if (op <= 1) {  // plain event
      const Time at = later();
      const int payload = plain_payload++;
      q.schedule(at, "plain",
                 [&, payload] { got.emplace_back(now, "plain", payload); });
      ref.schedule(at, "plain", payload);
    } else if (op <= 4) {  // RTO-style (re-)arm, later or earlier
      const int k = static_cast<int>(r.uniform_int(0, kTimers - 1));
      Timer& t = timers[k];
      const Time at = later();
      if (t.pending) {
        t.id = q.reschedule(t.id, at);
        ref.events.erase(t.ref_key);
      } else {
        t.id = q.schedule(at, "timer", [&, k] {
          timers[k].pending = false;
          got.emplace_back(now, "timer", k);
        });
        t.pending = true;
      }
      t.ref_key = ref.schedule(at, "timer", k);
    } else if (op == 5) {  // cancel a timer
      Timer& t = timers[r.uniform_int(0, kTimers - 1)];
      if (t.pending) {
        q.cancel(t.id);
        ref.events.erase(t.ref_key);
        t.pending = false;
      }
    } else if (op <= 7) {  // a packet leaves the wire on chain c
      const int c = static_cast<int>(r.uniform_int(0, kChains - 1));
      Chain& ch = chains[c];
      ch.last_at = std::max(later(), ch.last_at);
      const int payload = ch.next_payload++;
      ch.fifo.emplace_back(payload, q.reserve(ch.last_at));
      ref.schedule(ch.last_at, "chain", c * 100000 + payload);
      if (ch.fifo.size() == 1) insert_head(c);
    } else if (!q.empty()) {  // run one event on both sides
      ASSERT_FALSE(ref.events.empty());
      now = q.next_time();
      q.pop_and_run();
      const auto it = ref.events.begin();
      want.emplace_back(it->first.first, it->second.first, it->second.second);
      ref.events.erase(it);
      ASSERT_EQ(got.size(), want.size());
      ASSERT_EQ(got.back(), want.back()) << "step " << step;
    }
  }
  while (!q.empty()) {
    now = q.next_time();
    q.pop_and_run();
    const auto it = ref.events.begin();
    want.emplace_back(it->first.first, it->second.first, it->second.second);
    ref.events.erase(it);
  }
  EXPECT_TRUE(ref.events.empty());
  EXPECT_EQ(got, want);
  EXPECT_EQ(q.scheduled_count(), ref.seq);
  EXPECT_EQ(q.size(), 0u);
  EXPECT_GT(got.size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventCoreEquivalenceTest,
                         ::testing::Values(1u, 7u, 42u, 2024u, 99991u));

TEST(SimulatorTest, LabelledSchedulingBehavesLikeUnlabelled) {
  Simulator s;
  std::vector<Time> stamps;
  s.schedule_in(10, "test.step", [&] {
    stamps.push_back(s.now());
    s.schedule_at(15, "test.step", [&] { stamps.push_back(s.now()); });
  });
  s.run();
  EXPECT_EQ(stamps, (std::vector<Time>{10, 15}));
  EXPECT_EQ(s.executed_events(), 2u);
}

TEST(SimulatorTest, QueueDepthHighWaterZeroWithoutScope) {
  Simulator s;
  for (int i = 0; i < 8; ++i) s.schedule_in(i, [] {});
  s.run();
  // No obs scope installed: profiling is off, HWM stays untouched.
  EXPECT_EQ(s.queue_depth_high_water(), 0u);
  EXPECT_EQ(s.queue_depth(), 0u);
}

TEST(EventQueueTest, ScheduledCountIsDiagnosticTotal) {
  EventQueue q;
  q.schedule(1, [] {});
  const EventId b = q.schedule(2, [] {});
  q.cancel(b);
  q.pop_and_run();
  EXPECT_EQ(q.scheduled_count(), 2u);  // counts ever-scheduled, not pending
  EXPECT_TRUE(q.empty());
}

TEST(SimulatorTest, ExecutedEventsCountsOnlyRunEvents) {
  Simulator s;
  const EventId a = s.schedule_in(5, [] {});
  (void)a;
  const EventId b = s.schedule_in(6, [] {});
  s.cancel(b);
  s.run();
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(RngTest, SameSeedSameStream) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 4);
}

TEST(RngTest, ForkIsStableRegardlessOfParentDraws) {
  Rng a(99);
  Rng fork_before = a.fork("radio");
  (void)a.next_u64();
  (void)a.uniform(0, 1);
  Rng fork_after = a.fork("radio");
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(fork_before.next_u64(), fork_after.next_u64());
  }
}

TEST(RngTest, ForksWithDifferentNamesAreIndependent) {
  Rng a(99);
  Rng x = a.fork("x");
  Rng y = a.fork("y");
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (x.next_u64() == y.next_u64());
  EXPECT_LT(same, 4);
}

TEST(RngTest, ForkSubstreamsAreUncorrelated) {
  // Direct independence check: paired uniforms from two named substreams
  // of the same parent show no linear correlation.
  Rng parent(42);
  Rng x = parent.fork("substream-a");
  Rng y = parent.fork("substream-b");
  const int n = 4000;
  double sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  for (int i = 0; i < n; ++i) {
    const double u = x.uniform(0, 1), v = y.uniform(0, 1);
    sx += u;
    sy += v;
    sxx += u * u;
    syy += v * v;
    sxy += u * v;
  }
  const double cov = sxy / n - (sx / n) * (sy / n);
  const double var_x = sxx / n - (sx / n) * (sx / n);
  const double var_y = syy / n - (sy / n) * (sy / n);
  const double corr = cov / std::sqrt(var_x * var_y);
  EXPECT_LT(std::fabs(corr), 0.05);
  // Both streams are individually well-behaved uniforms.
  EXPECT_NEAR(sx / n, 0.5, 0.03);
  EXPECT_NEAR(sy / n, 0.5, 0.03);
}

TEST(RngTest, NestedForksDependOnFullPath) {
  // fork("a").fork("b") and fork("b").fork("a") are distinct streams: the
  // derivation is path-dependent, not an order-insensitive xor of names.
  Rng parent(7);
  Rng ab = parent.fork("a").fork("b");
  Rng ba = parent.fork("b").fork("a");
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (ab.next_u64() == ba.next_u64());
  EXPECT_LT(same, 4);
  // And a nested fork re-derived from scratch is bit-identical.
  Rng again = Rng(7).fork("a").fork("b");
  Rng ab2 = Rng(7).fork("a").fork("b");
  for (int i = 0; i < 32; ++i) EXPECT_EQ(again.next_u64(), ab2.next_u64());
}

TEST(RngTest, UniformInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIntCoversInclusiveRange) {
  Rng r(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= (v == 0);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMomentsApproximate) {
  Rng r(5);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(10.0, 2.0);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(RngTest, BernoulliProbability) {
  Rng r(6);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, BernoulliClampsOutOfRange) {
  Rng r(8);
  EXPECT_FALSE(r.bernoulli(-0.5));
  EXPECT_TRUE(r.bernoulli(1.5));
}

// Property sweep: event-driven clocks never move backwards for any workload
// pattern generated from different seeds.
class SimulatorPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimulatorPropertyTest, TimeNeverGoesBackwards) {
  Simulator s;
  Rng r(GetParam());
  Time last_seen = 0;
  bool violated = false;
  // A self-perpetuating stochastic workload with fan-out.
  std::function<void(int)> spawn = [&](int depth) {
    if (depth > 4) return;
    const int kids = static_cast<int>(r.uniform_int(0, 3));
    for (int k = 0; k < kids; ++k) {
      s.schedule_in(r.uniform_int(0, 1000), [&, depth] {
        violated = violated || (s.now() < last_seen);
        last_seen = s.now();
        spawn(depth + 1);
      });
    }
  };
  spawn(0);
  s.run();
  EXPECT_FALSE(violated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 1234u, 99999u));

}  // namespace
}  // namespace fiveg::sim
