// The event loop every simulation runs: an EventQueue drained by
// `while (!q.empty()) dispatch(q.pop());`, where dispatch switches on the
// event class and may push or cancel events. These cases pin the clock and
// drain contract that loop relies on; event_queue_test.cpp pins the
// queue's ordering and cancellation on its own.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dmsched::sim {
namespace {

Event timer(std::uint32_t tag = 0) { return {EventClass::kTimer, tag}; }

TEST(Engine, StartsAtTimeZero) {
  EventQueue q;
  EXPECT_EQ(q.now(), SimTime{});
  EXPECT_EQ(q.size(), 0u);
}

TEST(Engine, RunAdvancesClock) {
  EventQueue q;
  q.push(seconds(std::int64_t{10}), timer());
  while (!q.empty()) (void)q.pop();
  EXPECT_EQ(q.events_processed(), 1u);
  EXPECT_EQ(q.now(), seconds(std::int64_t{10}));
}

TEST(Engine, HandlerSeesFiringTime) {
  EventQueue q;
  q.push(seconds(std::int64_t{2}), timer(2));
  q.push(seconds(std::int64_t{7}), timer(7));
  std::vector<std::int64_t> seen;
  while (!q.empty()) {
    const Event ev = q.pop();
    // The clock already reads the popped event's time when it is handled.
    EXPECT_EQ(q.now(), seconds(std::int64_t{ev.tag}));
    seen.push_back(q.now().usec());
  }
  EXPECT_EQ(seen, (std::vector<std::int64_t>{2'000'000, 7'000'000}));
}

TEST(Engine, ScheduleInIsRelative) {
  // A delay is a push at now() + d, relative to the handler's clock.
  EventQueue q;
  q.push(seconds(std::int64_t{5}), timer(0));
  std::vector<double> fire_times;
  while (!q.empty()) {
    if (q.pop().tag == 0) {
      q.push(q.now() + seconds(std::int64_t{3}), timer(1));
    } else {
      fire_times.push_back(q.now().seconds());
    }
  }
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_DOUBLE_EQ(fire_times[0], 8.0);
}

TEST(Engine, HandlersMayScheduleAtCurrentTime) {
  // A push at now() during a drain pops at the same timestamp, after every
  // equal-key event pushed before it (ids break ties in push order).
  EventQueue q;
  const SimTime t = seconds(std::int64_t{1});
  q.push(t, {EventClass::kSubmission, 0});
  q.push(t, {EventClass::kSchedule, 1});
  std::vector<std::uint32_t> order;
  while (!q.empty()) {
    const Event ev = q.pop();
    order.push_back(ev.tag);
    EXPECT_EQ(q.now(), t);
    if (ev.cls == EventClass::kSubmission) {
      q.push(q.now(), {EventClass::kSchedule, 2});
    }
  }
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(Engine, SchedulingInThePastAborts) {
  EventQueue q;
  q.push(seconds(std::int64_t{5}), timer());
  (void)q.pop();
  EXPECT_DEATH(q.push(seconds(std::int64_t{1}), timer()), "time travel");
  // A push at the current time is the boundary, and allowed.
  q.push(q.now(), timer());
  EXPECT_EQ(q.size(), 1u);
}

TEST(Engine, CancelPreventsFiring) {
  EventQueue q;
  const EventId id = q.push(seconds(std::int64_t{3}), timer());
  EXPECT_TRUE(q.cancel(id));
  int fired = 0;
  while (!q.empty()) {
    (void)q.pop();
    ++fired;
  }
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.events_processed(), 0u);
  EXPECT_EQ(q.now(), SimTime{}) << "a cancelled event must not move the clock";
}

TEST(Engine, EventsProcessedCounter) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.push(seconds(std::int64_t{i + 1}), timer());
  q.cancel(q.push(seconds(std::int64_t{4}), timer()));
  while (!q.empty()) (void)q.pop();
  EXPECT_EQ(q.events_processed(), 10u);
}

TEST(Engine, CascadingEventsAllRun) {
  // Each event schedules the next: a 100-deep chain must drain fully.
  EventQueue q;
  int count = 0;
  q.push(seconds(std::int64_t{0}), timer());
  while (!q.empty()) {
    (void)q.pop();
    if (++count < 100) q.push(q.now() + seconds(std::int64_t{1}), timer());
  }
  EXPECT_EQ(count, 100);
  EXPECT_EQ(q.now(), seconds(std::int64_t{99}));
}

TEST(Engine, SameTimeRespectsEventClassOrder) {
  EventQueue q;
  const SimTime t = seconds(std::int64_t{4});
  q.push(t, {EventClass::kSchedule, 0});
  q.push(t, {EventClass::kCompletion, 0});
  q.push(t, {EventClass::kSubmission, 0});
  std::vector<EventClass> order;
  while (!q.empty()) {
    const Event ev = q.pop();
    order.push_back(ev.cls);
    // A completion pushed mid-drain at the current time still runs before
    // the pending pass: class outranks push order.
    if (ev.cls == EventClass::kSubmission && ev.tag == 0) {
      q.push(q.now(), {EventClass::kCompletion, 1});
    }
  }
  EXPECT_EQ(order, (std::vector<EventClass>{
                       EventClass::kCompletion, EventClass::kSubmission,
                       EventClass::kCompletion, EventClass::kSchedule}));
}

}  // namespace
}  // namespace dmsched::sim
