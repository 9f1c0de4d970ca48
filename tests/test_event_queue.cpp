#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <random>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/scheduler.hpp"

namespace f2t::sim {
namespace {

// ---------------------------------------------------------------------------
// Key-level: CalendarQueue must pop in exactly (at, id) order, whatever the
// bucket geometry does underneath.

TEST(CalendarQueue, PopsInKeyOrder) {
  CalendarQueue q;
  q.push({micros(30), 3});
  q.push({micros(10), 7});
  q.push({micros(20), 1});
  q.push({micros(10), 2});
  EXPECT_EQ(q.size(), 4u);
  EXPECT_EQ(q.pop(), (EventKey{micros(10), 2}));
  EXPECT_EQ(q.pop(), (EventKey{micros(10), 7}));
  EXPECT_EQ(q.pop(), (EventKey{micros(20), 1}));
  EXPECT_EQ(q.pop(), (EventKey{micros(30), 3}));
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SameTimestampIsFifoById) {
  CalendarQueue q;
  // Ids out of push order: pop order must still be ascending id.
  for (const EventId id : {9u, 1u, 5u, 3u, 7u, 2u}) {
    q.push({millis(5), id});
  }
  EventId last = 0;
  while (!q.empty()) {
    const EventKey k = q.pop();
    EXPECT_GT(k.id, last);
    last = k.id;
  }
}

TEST(CalendarQueue, PeekMatchesPopAndHandlesEmpty) {
  CalendarQueue q;
  EXPECT_EQ(q.peek(), nullptr);
  q.push({seconds(1), 4});
  q.push({millis(1), 9});
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(*q.peek(), (EventKey{millis(1), 9}));
  EXPECT_EQ(q.pop(), (EventKey{millis(1), 9}));
  ASSERT_NE(q.peek(), nullptr);
  EXPECT_EQ(*q.peek(), (EventKey{seconds(1), 4}));
}

TEST(CalendarQueue, InterleavedPushPopKeepsOrder) {
  // Pushing between pops (at times >= the popped time, the scheduler's
  // invariant) must never let a later key overtake an earlier one.
  CalendarQueue q;
  q.push({micros(100), 1});
  q.push({micros(300), 2});
  EXPECT_EQ(q.pop(), (EventKey{micros(100), 1}));
  q.push({micros(150), 3});  // earlier than the current min
  q.push({micros(100), 4});  // exactly at the last popped time
  EXPECT_EQ(q.pop(), (EventKey{micros(100), 4}));
  EXPECT_EQ(q.pop(), (EventKey{micros(150), 3}));
  EXPECT_EQ(q.pop(), (EventKey{micros(300), 2}));
}

TEST(CalendarQueue, SparseJumpsFindTheFarFuture) {
  // Events much more than a calendar year apart force the full-rotation
  // fallback scan; order must survive the cursor jumps.
  CalendarQueue q;
  q.push({seconds(1000), 2});
  q.push({micros(1), 1});
  q.push({seconds(2'000'000), 3});
  EXPECT_EQ(q.pop(), (EventKey{micros(1), 1}));
  EXPECT_EQ(q.pop(), (EventKey{seconds(1000), 2}));
  EXPECT_EQ(q.pop(), (EventKey{seconds(2'000'000), 3}));
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, AllKeysInOneBucketStillOrdered) {
  // Adversarial pile-up: identical timestamps all hash to one bucket, so
  // the bucket heap alone carries the ordering. Push enough to cross the
  // grow threshold while every key lands in the same day.
  CalendarQueue q;
  const std::size_t n = 4096;
  for (std::size_t i = 0; i < n; ++i) {
    q.push({millis(777), static_cast<EventId>(n - i)});
  }
  for (std::size_t i = 1; i <= n; ++i) {
    EXPECT_EQ(q.pop(), (EventKey{millis(777), static_cast<EventId>(i)}));
  }
}

TEST(CalendarQueue, GrowsAndShrinksAcrossLoad) {
  CalendarQueue q;
  const std::size_t initial = q.bucket_count();
  std::mt19937_64 rng(7);
  for (EventId id = 1; id <= 20000; ++id) {
    q.push({static_cast<Time>(rng() % static_cast<std::uint64_t>(seconds(1))),
            id});
  }
  EXPECT_GT(q.bucket_count(), initial);
  Time last = 0;
  while (q.size() > 8) {
    const EventKey k = q.pop();
    EXPECT_GE(k.at, last);
    last = k.at;
  }
  EXPECT_LT(q.bucket_count(), 20000u);
}

TEST(CalendarQueue, DifferentialAgainstBinaryHeap) {
  // Random interleaved push/pop against a binary min-heap over the same
  // key: the two must agree key-for-key at every step.
  std::mt19937_64 rng(42);
  CalendarQueue cal;
  std::priority_queue<EventKey, std::vector<EventKey>, std::greater<>> heap;
  Time floor = 0;  // scheduler invariant: never push below the last pop
  EventId next_id = 1;
  for (int step = 0; step < 50000; ++step) {
    const bool do_push = cal.empty() || (rng() % 3) != 0;
    if (do_push) {
      // Mixed densities: mostly near-future, sometimes far-future,
      // sometimes exactly-now (the after(0) pattern).
      Time at = floor;
      switch (rng() % 4) {
        case 0: break;
        case 1: at += static_cast<Time>(rng() % 1000); break;
        case 2: at += static_cast<Time>(rng() % micros(200)); break;
        default: at += static_cast<Time>(rng() % seconds(2)); break;
      }
      const EventKey key{at, next_id++};
      cal.push(key);
      heap.push(key);
    } else {
      ASSERT_EQ(cal.size(), heap.size());
      const EventKey a = cal.pop();
      const EventKey b = heap.top();
      heap.pop();
      ASSERT_EQ(a, b) << "diverged at step " << step;
      floor = a.at;
    }
  }
  while (!cal.empty()) {
    ASSERT_FALSE(heap.empty());
    ASSERT_EQ(cal.pop(), heap.top());
    heap.pop();
  }
  EXPECT_TRUE(heap.empty());
}

// ---------------------------------------------------------------------------
// Scheduler-level: the calendar swap must preserve the documented cancel
// and ordering semantics exactly.

TEST(SchedulerCalendar, SameTimeEventsRunInScheduleOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(millis(1), [&] { order.push_back(1); });
  sched.schedule_at(millis(1), [&] { order.push_back(2); });
  sched.schedule_at(0, [&] { order.push_back(0); });
  sched.schedule_at(millis(1), [&] { order.push_back(3); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SchedulerCalendar, CancelOfFiredIdIsANoOp) {
  Scheduler sched;
  int fired = 0;
  const EventId first = sched.schedule_at(micros(1), [&] { ++fired; });
  sched.schedule_at(micros(2), [&] { ++fired; });
  sched.run(micros(1));
  EXPECT_EQ(fired, 1);
  sched.cancel(first);  // already fired: must not disturb the live event
  EXPECT_TRUE(sched.has_pending());
  EXPECT_EQ(sched.cancelled_backlog(), 0u);
  sched.run();
  EXPECT_EQ(fired, 2);
}

TEST(SchedulerCalendar, CancelPendingSkipsLazily) {
  Scheduler sched;
  int fired = 0;
  const EventId a = sched.schedule_at(micros(10), [&] { fired += 1; });
  sched.schedule_at(micros(20), [&] { fired += 10; });
  const EventId c = sched.schedule_at(micros(30), [&] { fired += 100; });
  sched.cancel(a);
  sched.cancel(c);
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sched.cancelled_backlog(), 0u);
  EXPECT_FALSE(sched.has_pending());
}

TEST(SchedulerCalendar, CancelAllThenReschedule) {
  Scheduler sched;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sched.schedule_at(micros(i), [] {}));
  }
  for (const EventId id : ids) sched.cancel(id);
  EXPECT_FALSE(sched.has_pending());
  int fired = 0;
  sched.schedule_at(millis(1), [&] { ++fired; });
  EXPECT_EQ(sched.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), millis(1));
}

TEST(SchedulerCalendar, RunAdvancesToHorizonOverEmptyStretch) {
  Scheduler sched;
  int fired = 0;
  sched.schedule_at(seconds(5), [&] { ++fired; });
  // A horizon short of the event fast-forwards time without firing.
  EXPECT_EQ(sched.run(seconds(2)), 0u);
  EXPECT_EQ(sched.now(), seconds(2));
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sched.run(seconds(10)), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now(), seconds(10));
}

TEST(SchedulerCalendar, RescheduleFromWithinAction) {
  // The sim.after(0) coalescing pattern: an action scheduling at now()
  // must run within the same run() call, after all same-time peers.
  Scheduler sched;
  std::vector<int> order;
  sched.schedule_at(millis(1), [&] {
    order.push_back(1);
    sched.schedule_at(sched.now(), [&] { order.push_back(3); });
  });
  sched.schedule_at(millis(1), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

}  // namespace
}  // namespace f2t::sim
