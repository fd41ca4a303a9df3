// Heavy-cancellation regression net for the event core.
//
// The indexed heap replaced the lazy-tombstone heap (see
// src/sim/event_queue.cpp); these tests pin the *observable* contract the
// rewrite must preserve under cancellation pressure:
//  - drained event order is exactly the (time, class, id) total order over
//    the surviving events, checked against independently computed reference
//    models: a sort of the planned events, and a naive linear-scan pending
//    list that replays job scripts whose handlers push and cancel mid-drain;
//  - pops interleaved with cancellation fire the same events at the same
//    clock readings even when the earliest pending event is repeatedly the
//    one cancelled (the old front-tombstone worst case).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/event_queue.hpp"

namespace dmsched::sim {
namespace {

/// Deterministic xorshift so the "random" schedule is identical in every
/// build (the simulation paths themselves must never use randomness).
struct XorShift {
  std::uint64_t x = 88172645463325252ULL;
  std::uint64_t next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

struct PlannedEvent {
  std::int64_t time_usec;
  EventClass cls;
  std::uint64_t seq;  // insertion order — the final tie-break
  int tag;
  bool cancelled = false;
};

constexpr EventClass kClasses[] = {EventClass::kCompletion,
                                   EventClass::kSubmission, EventClass::kTimer,
                                   EventClass::kSchedule};

/// The (time, class, insertion) key the model orders by.
auto key(const PlannedEvent& e) {
  return std::tuple(e.time_usec, e.cls, e.seq);
}

/// The reference model: the (time, class, seq) total order over survivors.
std::vector<int> expected_order(std::vector<PlannedEvent> plan) {
  std::erase_if(plan, [](const PlannedEvent& e) { return e.cancelled; });
  std::sort(plan.begin(), plan.end(),
            [](const PlannedEvent& a, const PlannedEvent& b) {
              return key(a) < key(b);
            });
  std::vector<int> tags;
  tags.reserve(plan.size());
  for (const PlannedEvent& e : plan) tags.push_back(e.tag);
  return tags;
}

/// A naive pending set with EventQueue's interface: a flat list scanned
/// linearly for the (time, class, push order) minimum. No heap and no
/// index, so it shares no code or data structure with the queue under test.
class ReferenceQueue {
 public:
  EventId push(SimTime time, Event ev) {
    all_.push_back({time.usec(), ev.cls, all_.size(),
                    static_cast<int>(ev.tag)});
    live_.push_back(true);
    return all_.size();  // 1-based, like EventQueue
  }
  bool cancel(EventId id) {
    if (id == 0 || id > all_.size() || !live_[id - 1]) return false;
    live_[id - 1] = false;
    return true;
  }
  [[nodiscard]] bool empty() const {
    return std::find(live_.begin(), live_.end(), true) == live_.end();
  }
  Event pop() {
    std::size_t best = all_.size();
    for (std::size_t i = 0; i < all_.size(); ++i) {
      if (live_[i] && (best == all_.size() || key(all_[i]) < key(all_[best]))) {
        best = i;
      }
    }
    live_[best] = false;
    now_ = usec(all_[best].time_usec);
    return {all_[best].cls, static_cast<std::uint32_t>(all_[best].tag)};
  }
  [[nodiscard]] SimTime now() const { return now_; }

 private:
  std::vector<PlannedEvent> all_;
  std::vector<bool> live_;
  SimTime now_{};
};

/// How far ahead of its submission a job's cancelled event is scheduled.
enum class CancelShape {
  /// Walltime kill: at the walltime limit, just after (or tied with) the
  /// completion — among the earliest pending events.
  kWalltimeKill,
  /// Backfill-style reservation a month ahead, behind every near-term
  /// event: deep in the heap when it is cancelled.
  kReservation,
};

struct ScriptJob {
  SimTime submit;
  SimTime runtime;
  SimTime walltime;
};

/// Jobs with clustered, nondecreasing submit times (many ties), and a
/// walltime that often equals the runtime (kill and completion tie too).
std::vector<ScriptJob> script_jobs(int n) {
  XorShift rng;
  std::vector<ScriptJob> jobs;
  std::int64_t submit = 0;
  for (int i = 0; i < n; ++i) {
    submit += static_cast<std::int64_t>(rng.next() % 3);
    const auto runtime = static_cast<std::int64_t>(rng.next() % 600 + 1);
    const auto slack = static_cast<std::int64_t>(rng.next() % 3) * 60;
    jobs.push_back({seconds(submit), seconds(runtime),
                    seconds(runtime + slack)});
  }
  return jobs;
}

struct Drain {
  std::vector<std::tuple<std::int64_t, EventClass, std::uint32_t>> fired;
  std::size_t cancels = 0;
};

/// Replay a job script: every submission is pushed up front; a submission
/// pushes its completion plus one event of the given shape, and the
/// completion cancels that event. The drain log records each pop's clock,
/// class and tag.
template <class Queue>
Drain replay(const std::vector<ScriptJob>& jobs, CancelShape shape) {
  Queue q;
  Drain d;
  std::vector<EventId> target(jobs.size(), kInvalidEventId);
  for (std::uint32_t j = 0; j < jobs.size(); ++j) {
    q.push(jobs[j].submit, {EventClass::kSubmission, j});
  }
  while (!q.empty()) {
    const Event ev = q.pop();
    d.fired.emplace_back(q.now().usec(), ev.cls, ev.tag);
    const ScriptJob& job = jobs[ev.tag];
    switch (ev.cls) {
      case EventClass::kSubmission: {
        const SimTime at =
            shape == CancelShape::kWalltimeKill
                ? job.submit + job.walltime
                : job.submit + seconds(std::int64_t{30} * 24 * 3600);
        target[ev.tag] = q.push(at, {EventClass::kTimer, ev.tag});
        q.push(q.now() + job.runtime, {EventClass::kCompletion, ev.tag});
        break;
      }
      case EventClass::kCompletion:
        if (q.cancel(target[ev.tag])) ++d.cancels;
        break;
      default:
        break;
    }
  }
  return d;
}

TEST(Cancellation, DrainOrderMatchesTheTotalOrderModel) {
  // 2000 events at clustered timestamps (heavy ties), ~40% cancelled in a
  // deterministic pattern, including long runs of cancelled heap fronts.
  constexpr int kEvents = 2000;
  XorShift rng;
  EventQueue q;
  std::vector<PlannedEvent> plan;
  std::vector<EventId> ids;
  plan.reserve(kEvents);
  for (int i = 0; i < kEvents; ++i) {
    // Only 50 distinct timestamps, so class and seq tie-breaks carry real
    // weight in the drain order.
    const auto t = static_cast<std::int64_t>(rng.next() % 50) * 1'000'000;
    const EventClass cls = kClasses[rng.next() % 4];
    plan.push_back({t, cls, static_cast<std::uint64_t>(i), i});
    ids.push_back(q.push(usec(t), {cls, static_cast<std::uint32_t>(i)}));
  }
  XorShift cancel_rng;
  cancel_rng.x = 1234567891234567ULL;
  for (int i = 0; i < kEvents; ++i) {
    if (cancel_rng.next() % 5 < 2) {
      EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
      plan[static_cast<std::size_t>(i)].cancelled = true;
    }
  }
  std::vector<int> fired;
  while (!q.empty()) fired.push_back(static_cast<int>(q.pop().tag));
  EXPECT_EQ(fired, expected_order(plan));

  // The two cancel shapes of a job replay, where handlers push and cancel
  // mid-drain: the queue's drain must equal the naive reference's.
  const std::vector<ScriptJob> jobs = script_jobs(1000);
  for (const CancelShape shape :
       {CancelShape::kWalltimeKill, CancelShape::kReservation}) {
    SCOPED_TRACE(shape == CancelShape::kWalltimeKill ? "walltime kill"
                                                     : "reservation");
    const Drain got = replay<EventQueue>(jobs, shape);
    const Drain want = replay<ReferenceQueue>(jobs, shape);
    // Every job's target is still pending at its completion.
    EXPECT_EQ(got.cancels, jobs.size());
    EXPECT_EQ(want.cancels, jobs.size());
    ASSERT_EQ(got.fired.size(), 2 * jobs.size());
    EXPECT_TRUE(got.fired == want.fired) << "drain order diverged";
  }
}

TEST(Cancellation, PopInterleavedWithCancellationKeepsOrder) {
  // Cancel the earliest pending event before every other pop and check the
  // drained order and clock against the model: the front is the entry the
  // heap must repair on each cancel.
  constexpr int kEvents = 600;
  EventQueue q;
  std::vector<PlannedEvent> plan;
  std::vector<EventId> ids;
  std::vector<bool> done(kEvents, false);  // fired or cancelled
  XorShift rng;
  for (int i = 0; i < kEvents; ++i) {
    const auto t =
        static_cast<std::int64_t>(rng.next() % 120 + 1) * 1'000'000;
    const EventClass cls = kClasses[rng.next() % 4];
    plan.push_back({t, cls, static_cast<std::uint64_t>(i), i});
    ids.push_back(q.push(usec(t), {cls, static_cast<std::uint32_t>(i)}));
  }
  auto earliest_live = [&]() -> int {
    int best = -1;
    for (int i = 0; i < kEvents; ++i) {
      if (done[static_cast<std::size_t>(i)]) continue;
      if (best < 0 || key(plan[static_cast<std::size_t>(i)]) <
                          key(plan[static_cast<std::size_t>(best)])) {
        best = i;
      }
    }
    return best;
  };
  std::vector<int> fired;
  std::vector<std::int64_t> fired_clock;
  for (int step = 0; !q.empty(); ++step) {
    if (step % 2 == 0) {
      const int front = earliest_live();
      ASSERT_GE(front, 0);
      EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(front)]));
      plan[static_cast<std::size_t>(front)].cancelled = true;
      done[static_cast<std::size_t>(front)] = true;
      if (q.empty()) break;
    }
    const int tag = static_cast<int>(q.pop().tag);
    done[static_cast<std::size_t>(tag)] = true;
    fired.push_back(tag);
    fired_clock.push_back(q.now().usec());
  }
  EXPECT_EQ(fired.size(), static_cast<std::size_t>(2 * kEvents / 3));
  EXPECT_EQ(fired, expected_order(plan));
  // Every event fired at its scheduled time, in nondecreasing clock order.
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired_clock[i],
              plan[static_cast<std::size_t>(fired[i])].time_usec);
    if (i > 0) {
      EXPECT_GE(fired_clock[i], fired_clock[i - 1]);
    }
  }
}

TEST(Cancellation, HandlersMayCancelPendingEventsMidDrain) {
  // Cancellation from inside a handler (the walltime-kill pattern: a
  // completion cancels the pending kill) must take effect immediately.
  EventQueue q;
  int kills_fired = 0;
  int completions = 0;
  constexpr std::uint32_t kJobs = 200;
  std::vector<EventId> kill(kJobs);
  for (std::uint32_t j = 0; j < kJobs; ++j) {
    const std::int64_t start = j * 10;
    kill[j] = q.push(seconds(start + 100), {EventClass::kTimer, j});
    q.push(seconds(start + 50), {EventClass::kCompletion, j});
  }
  while (!q.empty()) {
    const Event ev = q.pop();
    if (ev.cls == EventClass::kTimer) {
      ++kills_fired;
    } else {
      ++completions;
      EXPECT_TRUE(q.cancel(kill[ev.tag]));
    }
  }
  EXPECT_EQ(completions, static_cast<int>(kJobs));
  EXPECT_EQ(kills_fired, 0) << "a cancelled walltime kill still fired";
}

TEST(Cancellation, CancelOfFiredIdsStaysFalseUnderChurn) {
  // 5000 push/pop/cancel rounds: every event gets exactly one `true`
  // answer lifetime-wide — it either fires or is cancelled once, never
  // both — and cancel() on fired or cancelled ids stays false forever.
  EventQueue q;
  XorShift rng;
  std::vector<EventId> id_of;       // tag (index) → event id
  std::vector<std::uint32_t> live_tags;  // pushed, not fired or cancelled
  std::vector<EventId> dead;        // successfully cancelled ids
  int fired = 0;
  for (int round = 0; round < 5000; ++round) {
    const std::uint64_t r = rng.next() % 3;
    if (r == 0 || live_tags.empty()) {
      const auto tag = static_cast<std::uint32_t>(id_of.size());
      const SimTime at =
          q.now() + seconds(static_cast<std::int64_t>(rng.next() % 5 + 1));
      id_of.push_back(q.push(at, {EventClass::kTimer, tag}));
      live_tags.push_back(tag);
    } else if (r == 1) {
      const std::size_t k = rng.next() % live_tags.size();
      const std::uint32_t tag = live_tags[k];
      EXPECT_TRUE(q.cancel(id_of[tag]));
      dead.push_back(id_of[tag]);
      live_tags.erase(live_tags.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (!q.empty()) {
      const std::uint32_t tag = q.pop().tag;
      ++fired;
      std::erase(live_tags, tag);
      // A fired id answers false from then on.
      EXPECT_FALSE(q.cancel(id_of[tag]));
    }
    if (!dead.empty() && round % 7 == 0) {
      EXPECT_FALSE(q.cancel(dead[rng.next() % dead.size()]));
    }
  }
  const int fired_before = fired;
  for (const EventId id : dead) EXPECT_FALSE(q.cancel(id));
  while (!q.empty()) {
    (void)q.pop();
    ++fired;
  }
  EXPECT_EQ(fired, fired_before + static_cast<int>(live_tags.size()));
}

}  // namespace
}  // namespace dmsched::sim
