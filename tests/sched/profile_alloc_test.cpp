// Deterministic allocation gate for the reservation sweep (sched/profile.hpp
// "Storage rule"). This executable replaces global operator new/delete with
// a counting forwarder to malloc/free; the count runs only inside measured
// regions. After a warm-up, steady-state conservative-style passes
// (drop_holds, window fits, add_hold), mem-easy-style what-ifs (mark,
// add_hold, window fit, rollback) and dirty syncs must allocate exactly once
// per successful earliest_fit_window — the returned Fit::plan — and nowhere
// else. A wall-clock-free check that the sweep stays allocation-free.
//
// Shared-neighbors routing is not exercised: stage 2 of that routing keeps
// three per-call vectors (measured not to be worth a scratch area).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "memory/placement.hpp"
#include "sched/profile.hpp"
#include "testing/builders.hpp"
#include "testing/fake_context.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dmsched {
namespace {

using testing::FakeContext;
using testing::job;
using testing::machine;

/// Allocations made while in scope.
class Measured {
 public:
  Measured() : start_(g_allocations.load()) { g_counting = true; }
  ~Measured() { g_counting = false; }
  Measured(const Measured&) = delete;
  Measured& operator=(const Measured&) = delete;
  [[nodiscard]] std::size_t count() const {
    return g_allocations.load() - start_;
  }

 private:
  std::size_t start_;
};

constexpr JobId kRunning = 10;  // jobs [0, kRunning) run; the rest queue
constexpr JobId kQueued = 12;

std::vector<Job> gate_jobs() {
  std::vector<Job> jobs;
  for (JobId i = 0; i < kRunning; ++i) {
    // Mixed widths, walltimes and deficits: releases spread over time and
    // draw from rack pools and the global tier.
    jobs.push_back(job(i)
                       .nodes(1 + static_cast<std::int32_t>(i % 3))
                       .mem_gib(i % 2 == 0 ? 96.0 : 32.0)
                       .walltime_h(0.5 + static_cast<double>(i)));
  }
  for (JobId i = kRunning; i < kRunning + kQueued; ++i) {
    jobs.push_back(job(i)
                       .nodes(2 + static_cast<std::int32_t>(i % 5))
                       .mem_gib(i % 3 == 0 ? 128.0 : 48.0)
                       .walltime_h(1.0 + static_cast<double>(i % 4)));
  }
  return jobs;
}

struct Tally {
  std::size_t allocations = 0;
  std::size_t fits = 0;         ///< successful earliest_fit_window calls
  std::size_t future_fits = 0;  ///< fits past now: the cursor moved
  std::size_t what_ifs = 0;
};

class SweepGate {
 public:
  SweepGate() : ctx_(machine(24, 64.0, 96.0, 256.0), gate_jobs()) {
    ctx_.enable_timeline();
    for (JobId i = 0; i < kRunning; ++i) ctx_.force_run(i);
    EXPECT_FALSE(profile_.sync(ctx_));
  }

  /// One steady-state iteration; returns what its measured regions did.
  Tally iterate() {
    Tally tally;
    // Re-run one job so the timeline version moves (outside the count: the
    // context's own ledger allocates), then the profile rebuilds.
    ctx_.finish(kRunning - 1);
    ctx_.force_run(kRunning - 1);
    bool clean = true;
    {
      const Measured m;
      clean = profile_.sync(ctx_);
      conservative_pass(tally);
      conservative_pass(tally);  // over a retained, partly valid cache
      mem_easy_what_ifs(tally);
      tally.allocations = m.count();
    }
    EXPECT_FALSE(clean);
    return tally;
  }

 private:
  static SimTime duration(const Job& j, const TakePlan& plan) {
    return plan.global_total().is_zero() ? j.walltime : j.walltime.scaled(1.5);
  }

  std::optional<FreeProfile::Fit> fit(const Job& j, Tally& tally) {
    auto f = profile_.earliest_fit_window(
        j, policy_, [&j](const TakePlan& plan) { return duration(j, plan); });
    if (f) {
      ++tally.fits;
      if (f->time > profile_.now()) ++tally.future_fits;
    }
    return f;
  }

  void conservative_pass(Tally& tally) {
    profile_.drop_holds();
    for (JobId id = kRunning; id < kRunning + kQueued; ++id) {
      const Job& j = ctx_.job(id);
      if (const auto f = fit(j, tally)) {
        profile_.add_hold(f->time, f->time + duration(j, f->plan), f->plan);
      }
    }
  }

  void mem_easy_what_ifs(Tally& tally) {
    profile_.drop_holds();
    const Job& head = ctx_.job(kRunning);
    const SimTime now = profile_.now();
    state_now_ = profile_.state_at(now);
    for (JobId id = kRunning + 1; id < kRunning + kQueued; ++id) {
      const Job& cand = ctx_.job(id);
      if (!compute_take_into(state_now_, ctx_.cluster().config(), cand,
                             policy_, take_)) {
        continue;
      }
      ++tally.what_ifs;
      const auto mark = profile_.mark();
      profile_.add_hold(now, now + duration(cand, take_), take_);
      const auto what_if_mark = profile_.mark();
      if (const auto f = fit(head, tally)) {
        profile_.add_hold(f->time, f->time + duration(head, f->plan), f->plan);
      }
      profile_.rollback(what_if_mark);
      profile_.rollback(mark);
    }
  }

  FakeContext ctx_;
  FreeProfile profile_;
  PlacementPolicy policy_{NodeSelection::kPackRacks,
                          PoolRouting::kRackThenGlobal};
  ResourceState state_now_;
  TakePlan take_;
};

TEST(ProfileAllocationGate, SteadyStateSweepsAllocateOnlyTheReturnedPlans) {
  SweepGate gate;
  // Warm-up: grows every retained row, delta slot and scratch plan.
  const Tally first = gate.iterate();
  EXPECT_GT(first.allocations, first.fits) << "warm-up should allocate";
  for (int i = 0; i < 3; ++i) (void)gate.iterate();

  constexpr int kIterations = 20;
  std::array<Tally, kIterations> tallies{};
  for (Tally& t : tallies) t = gate.iterate();
  for (int i = 0; i < kIterations; ++i) {
    const Tally& t = tallies[static_cast<std::size_t>(i)];
    SCOPED_TRACE(::testing::Message() << "iteration " << i);
    EXPECT_EQ(t.allocations, t.fits);
    // Not vacuous: every iteration fits every job, sweeps past now, and
    // runs what-ifs.
    EXPECT_EQ(t.fits, 2 * kQueued + t.what_ifs);
    EXPECT_GT(t.future_fits, kQueued);
    EXPECT_GT(t.what_ifs, 3u);
  }
  std::printf("warm-up %zu allocations; steady state %zu allocations for %zu "
              "fits (%zu past now, %zu what-ifs)\n",
              first.allocations, tallies[0].allocations, tallies[0].fits,
              tallies[0].future_fits, tallies[0].what_ifs);
}

}  // namespace
}  // namespace dmsched
