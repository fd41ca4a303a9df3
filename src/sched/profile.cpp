#include "sched/profile.hpp"

#include <algorithm>
#include <atomic>

#include "common/assert.hpp"

namespace dmsched {
namespace {

std::uint64_t next_timeline_id() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

void apply_signed(ResourceState& state, const TakePlan& take, bool adds) {
  if (adds) {
    release_take(state, take);
  } else {
    apply_take(state, take);
  }
}

}  // namespace

// --- AvailabilityTimeline ----------------------------------------------------

AvailabilityTimeline::AvailabilityTimeline(const ClusterConfig& config)
    : config_(&config),
      base_free_(empty_state(config)),
      id_(next_timeline_id()) {}

void AvailabilityTimeline::on_start(JobId id, SimTime release_at,
                                    const TakePlan& take) {
  apply_take(base_free_, take);
  // upper_bound keeps equal release times in start order — the order a
  // rebuild over the running list would see them in.
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), release_at,
      [](SimTime t, const Entry& e) { return t < e.time; });
  entries_.insert(it, Entry{release_at, id, take});
  ++version_;
}

void AvailabilityTimeline::on_finish(JobId id, SimTime release_at) {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), release_at,
      [](const Entry& e, SimTime t) { return e.time < t; });
  while (it != entries_.end() && it->time == release_at && it->job != id) ++it;
  DMSCHED_ASSERT(it != entries_.end() && it->time == release_at,
                 "AvailabilityTimeline: finish for untracked job");
  release_take(base_free_, it->take);
  entries_.erase(it);
  ++version_;
}

bool AvailabilityTimeline::has_release_in(SimTime after, SimTime upto) const {
  const auto it = std::upper_bound(
      entries_.begin(), entries_.end(), after,
      [](SimTime t, const Entry& e) { return t < e.time; });
  return it != entries_.end() && it->time <= upto;
}

// --- FreeProfile -------------------------------------------------------------

FreeProfile::FreeProfile(const ResourceState& base, SimTime now,
                         const ClusterConfig* config) {
  reset(base, now, config);
}

void FreeProfile::reset(const ResourceState& base, SimTime now,
                        const ClusterConfig* config) {
  DMSCHED_ASSERT(config != nullptr, "FreeProfile: null config");
  base_ = base;
  now_ = now;
  config_ = config;
  // Delta slots and cache rows are truncated logically; their storage is
  // kept for the rebuild to copy-assign into.
  live_ = 0;
  ordered_.clear();
  base_mark_ = 0;
  from_timeline_ = false;
  timeline_id_ = 0;
  timeline_version_ = 0;
  cache_times_.clear();
  cache_consumed_.clear();
}

FreeProfile FreeProfile::from_context(const SchedContext& ctx) {
  FreeProfile profile;
  profile.sync(ctx);
  return profile;
}

bool FreeProfile::sync(const SchedContext& ctx) {
  const AvailabilityTimeline* tl = ctx.timeline();
  const SimTime now = ctx.now();
  if (tl != nullptr && from_timeline_ && timeline_id_ == tl->id() &&
      timeline_version_ == tl->version() && now >= now_ &&
      next_change_after(now_) > now) {
    // Clean: no resources moved and no delta (release or hold boundary)
    // crossed now since the last pass — the profile, its holds, and the
    // prefix-state cache all stay valid; only the clock advances.
    now_ = now;
    return true;
  }
  if (tl != nullptr) {
    reset(tl->free_now(), now, &tl->config());
    for (const auto& e : tl->entries()) {
      // Timeline entries are already in delta_precedes order (all adds,
      // time-sorted), so ordered_ is just the identity — no sort.
      ordered_.push_back(static_cast<std::uint32_t>(live_));
      store_delta(e.time, e.take, /*adds=*/true);
    }
    from_timeline_ = true;
    timeline_id_ = tl->id();
    timeline_version_ = tl->version();
  } else {
    reset(snapshot(ctx.cluster()), now, &ctx.cluster().config());
    for (const RunningJob& r : ctx.running_jobs()) {
      add_release(r.expected_end, r.take);
    }
  }
  base_mark_ = live_;
  return false;
}

void FreeProfile::drop_holds() { rollback(base_mark_); }

void FreeProfile::add_release(SimTime time, const TakePlan& take) {
  // An expected release in the past (a dilated job overrunning its walltime
  // bound) needs no clamp: every query instant is >= now(), so the delta is
  // folded into the sweep-start state either way.
  insert_delta(time, take, /*adds=*/true);
}

void FreeProfile::add_hold(SimTime start, SimTime end, const TakePlan& take) {
  DMSCHED_ASSERT(start >= now_, "add_hold: hold starts in the past");
  DMSCHED_ASSERT(end > start, "add_hold: empty hold");
  insert_delta(start, take, /*adds=*/false);
  insert_delta(end, take, /*adds=*/true);
}

void FreeProfile::store_delta(SimTime time, const TakePlan& take, bool adds) {
  if (live_ == deltas_.size()) deltas_.emplace_back();
  ProfileDelta& d = deltas_[live_++];
  d.time = time;
  d.take = take;  // copy-assign: reuses the slot's rack-slice capacity
  d.adds = adds;
}

void FreeProfile::insert_delta(SimTime time, const TakePlan& take, bool adds) {
  invalidate_cache_from(time);
  const auto idx = static_cast<std::uint32_t>(live_);
  store_delta(time, take, adds);
  const ProfileDelta& nd = deltas_[idx];
  // upper_bound: equal deltas land after existing ones, so ties within one
  // (time, adds) class keep insertion order — exactly what stable_sort over
  // the insertion-ordered vector used to produce.
  const auto it = std::upper_bound(
      ordered_.begin(), ordered_.end(), nd,
      [this](const ProfileDelta& a, std::uint32_t bi) {
        return delta_precedes(a, deltas_[bi]);
      });
  ordered_.insert(it, idx);
}

void FreeProfile::rollback(Mark m) {
  DMSCHED_ASSERT(m <= live_, "rollback: mark from the future");
  if (m == live_) return;
  SimTime first_removed = kTimeInfinity;
  for (std::size_t i = m; i < live_; ++i) {
    first_removed = std::min(first_removed, deltas_[i].time);
  }
  invalidate_cache_from(first_removed);
  ordered_.erase(std::remove_if(ordered_.begin(), ordered_.end(),
                                [m](std::uint32_t i) { return i >= m; }),
                 ordered_.end());
  live_ = m;
}

void FreeProfile::invalidate_cache_from(SimTime t) const {
  const auto it =
      std::lower_bound(cache_times_.begin(), cache_times_.end(), t);
  const auto keep = static_cast<std::size_t>(it - cache_times_.begin());
  // Surviving rows only fold deltas with time < t; a delta inserted or
  // removed at time >= t sits after that prefix in ordered_, so the rows'
  // consumed counts stay valid. cache_states_ keeps every row's storage.
  cache_times_.resize(keep);
  cache_consumed_.resize(keep);
}

bool FreeProfile::ensure_rows(std::size_t n) const {
  while (cache_times_.size() < n) {
    const std::size_t row = cache_times_.size();
    std::size_t i = row == 0 ? 0 : cache_consumed_.back();
    if (i == ordered_.size()) return false;  // every delta is folded
    const SimTime row_time = deltas_[ordered_[i]].time;
    // One row per distinct delta time, with every delta at that time folded
    // (adds before subtracts, per ordered_) — intermediate same-time states
    // are never observable, matching the "apply everything <= t" contract.
    // A retained row is copy-assigned, which reuses its vectors.
    if (row == cache_states_.size()) cache_states_.emplace_back();
    ResourceState& state = cache_states_[row];
    state = row_state(row);
    while (i < ordered_.size() && deltas_[ordered_[i]].time == row_time) {
      const ProfileDelta& d = deltas_[ordered_[i]];
      apply_signed(state, d.take, d.adds);
      ++i;
    }
    cache_times_.push_back(row_time);
    cache_consumed_.push_back(i);
  }
  return true;
}

void FreeProfile::ensure_cached_to(SimTime t) const {
  for (;;) {
    const std::size_t i = cache_consumed_.empty() ? 0 : cache_consumed_.back();
    if (i == ordered_.size() || deltas_[ordered_[i]].time > t) return;
    ensure_rows(cache_times_.size() + 1);
  }
}

std::size_t FreeProfile::rows_through(SimTime t) const {
  ensure_cached_to(t);
  return static_cast<std::size_t>(
      std::upper_bound(cache_times_.begin(), cache_times_.end(), t) -
      cache_times_.begin());
}

const ResourceState& FreeProfile::state_at(SimTime time) const {
  DMSCHED_ASSERT(time >= now_, "state_at: time in the past");
  return row_state(rows_through(time));
}

SimTime FreeProfile::next_change_after(SimTime t) const {
  const auto it = std::upper_bound(
      ordered_.begin(), ordered_.end(), t,
      [this](SimTime v, std::uint32_t i) { return v < deltas_[i].time; });
  if (it == ordered_.end()) return kTimeInfinity;
  return deltas_[*it].time;
}

std::vector<SimTime> FreeProfile::breakpoints() const {
  std::vector<SimTime> times;
  times.reserve(ordered_.size() + 1);
  times.push_back(now_);
  for (const std::uint32_t i : ordered_) {
    if (deltas_[i].time >= now_) times.push_back(deltas_[i].time);
  }
  // ordered_ is time-sorted, so after the leading now_ the vector is
  // already sorted; only duplicates remain to strip.
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

std::optional<FreeProfile::Fit> FreeProfile::earliest_fit(
    const Job& job, PlacementPolicy policy) const {
  // A zero-length window: the continuity walk is empty, so this is the
  // instantaneous fit.
  return earliest_fit_window(job, policy,
                             [](const TakePlan&) { return SimTime{}; });
}

std::optional<FreeProfile::Fit> FreeProfile::earliest_fit_window(
    const Job& job, PlacementPolicy policy,
    const std::function<SimTime(const TakePlan&)>& duration_of) const {
  // Row cursor (see the header): with `row` rows folded into the state at
  // candidate t, cache_times_[row] is next_change_after(t) and
  // cache_states_[row] the state there. Holds make availability
  // non-monotone, so every breakpoint is tested. Row references die at the
  // next ensure_rows. Candidates are planned into plan_; only the plan
  // returned is copied out.
  std::size_t row = rows_through(now_);
  SimTime t = now_;
  for (;;) {
    if (compute_take_into(row_state(row), *config_, job, policy, plan_)) {
      const SimTime end = t + duration_of(plan_);
      bool continuous = true;
      for (std::size_t j = row; ensure_rows(j + 1) && cache_times_[j] < end;
           ++j) {
        if (!can_apply(cache_states_[j], plan_)) {
          continuous = false;
          break;
        }
      }
      if (continuous) return Fit{t, plan_};
    }
    if (!ensure_rows(row + 1)) return std::nullopt;  // final state tested
    t = cache_times_[row];
    ++row;
  }
}

}  // namespace dmsched
