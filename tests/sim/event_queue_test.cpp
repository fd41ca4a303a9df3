#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace dmsched::sim {
namespace {

Event timer(std::uint32_t tag = 0) { return {EventClass::kTimer, tag}; }

/// Pop one event and return the time it fired at.
SimTime pop_time(EventQueue& q) {
  (void)q.pop();
  return q.now();
}

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.now(), SimTime{});
  EXPECT_EQ(q.events_processed(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(seconds(std::int64_t{3}), timer());
  q.push(seconds(std::int64_t{1}), timer());
  q.push(seconds(std::int64_t{2}), timer());
  EXPECT_EQ(pop_time(q), seconds(std::int64_t{1}));
  EXPECT_EQ(pop_time(q), seconds(std::int64_t{2}));
  EXPECT_EQ(pop_time(q), seconds(std::int64_t{3}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ClassBreaksTimestampTies) {
  EventQueue q;
  const SimTime t = seconds(std::int64_t{5});
  q.push(t, {EventClass::kSchedule, 0});
  q.push(t, {EventClass::kMigration, 0});
  q.push(t, {EventClass::kSubmission, 0});
  q.push(t, {EventClass::kCompletion, 0});
  EXPECT_EQ(q.pop().cls, EventClass::kCompletion);
  EXPECT_EQ(q.pop().cls, EventClass::kSubmission);
  EXPECT_EQ(q.pop().cls, EventClass::kMigration);
  EXPECT_EQ(q.pop().cls, EventClass::kSchedule);
}

TEST(EventQueue, InsertionOrderBreaksFullTies) {
  EventQueue q;
  const SimTime t = seconds(std::int64_t{5});
  for (std::uint32_t i = 0; i < 5; ++i) q.push(t, timer(i));
  std::vector<std::uint32_t> order;
  while (!q.empty()) order.push_back(q.pop().tag);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  const EventId id = q.push(seconds(std::int64_t{1}), timer());
  q.push(seconds(std::int64_t{2}), timer());
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(pop_time(q), seconds(std::int64_t{2}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  const EventId id = q.push(seconds(std::int64_t{1}), timer());
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterFireFails) {
  EventQueue q;
  const EventId id = q.push(seconds(std::int64_t{1}), timer());
  (void)q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(999));
}

TEST(EventQueue, PopSkipsCancelledFront) {
  EventQueue q;
  const EventId a = q.push(seconds(std::int64_t{1}), timer());
  const EventId b = q.push(seconds(std::int64_t{1}), timer());
  q.push(seconds(std::int64_t{2}), timer());
  EXPECT_TRUE(q.cancel(a));
  EXPECT_TRUE(q.cancel(b));
  EXPECT_EQ(pop_time(q), seconds(std::int64_t{2}));
}

// The cancel() semantics matrix, pinned so a queue rewrite cannot drift:
// cancel-of-pending → true (exactly once), cancel-of-fired → false,
// double-cancel → false, never-issued id → false. Ids are never reused, so
// every answer is permanent.
TEST(EventQueue, CancelSemanticsMatrix) {
  EventQueue q;
  const EventId fired = q.push(seconds(std::int64_t{1}), timer(1));
  const EventId pending = q.push(seconds(std::int64_t{2}), timer(2));
  const EventId cancelled = q.push(seconds(std::int64_t{3}), timer(3));

  EXPECT_EQ(q.pop().tag, 1u);

  EXPECT_FALSE(q.cancel(fired)) << "cancel of a fired id";
  EXPECT_TRUE(q.cancel(cancelled)) << "cancel of a pending id";
  EXPECT_FALSE(q.cancel(cancelled)) << "double cancel";
  EXPECT_FALSE(q.cancel(fired + 1000)) << "never-issued id";
  EXPECT_TRUE(q.cancel(pending)) << "remaining pending id";
  EXPECT_FALSE(q.cancel(pending)) << "double cancel after drain";
  EXPECT_TRUE(q.empty());
  // Answers stay permanent even after new pushes (no id reuse).
  q.push(seconds(std::int64_t{4}), timer());
  EXPECT_FALSE(q.cancel(fired));
  EXPECT_FALSE(q.cancel(cancelled));
}

TEST(EventQueue, SizeTracksCancellationsImmediately) {
  // No tombstones: a cancelled event leaves size() at once, not lazily at
  // pop time.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 16; ++i) {
    ids.push_back(q.push(seconds(std::int64_t{i + 1}), timer()));
  }
  for (int i = 0; i < 16; i += 2) EXPECT_TRUE(q.cancel(ids[i]));
  EXPECT_EQ(q.size(), 8u);
  int popped = 0;
  while (!q.empty()) {
    EXPECT_EQ(pop_time(q).usec() / 1'000'000 % 2, 0) << "cancelled event fired";
    ++popped;
  }
  EXPECT_EQ(popped, 8);
}

TEST(EventQueue, CancelEverythingLeavesAnEmptyQueue) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(q.push(seconds(std::int64_t{100 - i}), timer()));
  }
  for (const EventId id : ids) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // The queue is still usable afterwards.
  q.push(seconds(std::int64_t{1}), timer());
  EXPECT_EQ(pop_time(q), seconds(std::int64_t{1}));
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  // pseudo-random times, verify nondecreasing pop order
  std::uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 2000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    q.push(usec(static_cast<std::int64_t>(x % 100000)), timer());
  }
  SimTime last{};
  while (!q.empty()) {
    const SimTime t = pop_time(q);
    EXPECT_GE(t, last);
    last = t;
  }
}

}  // namespace
}  // namespace dmsched::sim
