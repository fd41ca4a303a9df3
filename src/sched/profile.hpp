// Incremental availability: projected free resources over time.
//
// Two pieces share one delta vocabulary:
//
//  - `AvailabilityTimeline` is the *persistent* structure, owned by the
//    engine across scheduler passes. It tracks the live free state plus one
//    sorted release breakpoint per running job, and is updated push-style by
//    the engine's job start/finish hooks (O(log n) locate per update)
//    instead of being rebuilt from a cluster snapshot every pass. Its
//    version counter is the scheduler-side dirty flag: an unchanged version
//    means no resources moved since the last pass.
//
//  - `FreeProfile` is the per-pass *working view*: the timeline's releases
//    plus tentative holds (reservations, what-if backfills). Schedulers keep
//    one FreeProfile alive across passes and `sync()` it: when the timeline
//    is unchanged and no breakpoint crossed `now`, the profile — including
//    its lazily built prefix-state cache — carries over verbatim, so a pass
//    sweeps only windows invalidated since the last one.
//
// Schedulers query the profile for the earliest time a job fits — in BOTH
// dimensions, nodes and pool bytes — which is what makes backfilling
// disaggregation-aware. Feasibility at a breakpoint reuses the placement
// kernel, so the profile can never disagree with the planner about whether
// a job fits.
//
// The fit sweep is a row cursor over the prefix-state cache. Cache rows are
// exactly the distinct delta times, so the row after the one covering t is
// the next breakpoint and holds the state there: each sweep step costs O(1)
// plus at most one row fold (one ResourceState copy), and visits the same
// breakpoints and states, byte for byte, as a sweep that binary-searches
// next_change_after() and state_at() at every step.
//
// Storage rule: the sweep allocates nothing in steady state. Cache rows and
// delta slots are truncated *logically* — the row count is
// cache_times_.size(), the live delta count is live_ — and the storage past
// either end is retained: a regrown row or a reused slot is copy-assigned,
// which reuses its vectors' capacity. Fit candidates are planned into one
// scratch TakePlan (compute_take_into); only the plan a fit returns is
// copied out. invalidate_cache_from, rollback, drop_holds and a dirty sync
// therefore cost no frees, and the next sweep no allocations.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "memory/placement.hpp"
#include "sched/scheduler.hpp"

namespace dmsched {

/// One change to projected availability: resources become free (`adds`,
/// a running job's expected release or a hold expiring) or are taken
/// (a hold beginning).
struct ProfileDelta {
  SimTime time;
  TakePlan take;
  bool adds = true;
};

/// THE delta ordering: time ascending, additions before subtractions at
/// equal timestamps — so a hold that begins exactly when a release lands is
/// satisfiable, and intermediate sweep states never go negative. Every
/// sweep, insertion, and cache in this file routes through this one helper;
/// the tie-break lives in exactly one place (it used to be copied into each
/// call site, where it could silently drift).
[[nodiscard]] inline bool delta_precedes(const ProfileDelta& a,
                                         const ProfileDelta& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.adds && !b.adds;
}

/// The persistent availability structure: the machine's free state *now*
/// plus the sorted timeline of expected releases of every running job.
///
/// Owned by the simulation engine (one per run) and mutated push-style:
/// `on_start` when a job's resources leave the free pool, `on_finish` when
/// they return (completions, walltime kills, and cancellations all land
/// here — the engine funnels every way a job stops through one completion
/// path). Entries are kept sorted by release time with ties in start order,
/// which is exactly the order a from-scratch rebuild over the running list
/// would produce — the property the golden byte-identity contract rests on.
class AvailabilityTimeline {
 public:
  explicit AvailabilityTimeline(const ClusterConfig& config);

  /// A job's resources left the free pool; they are expected back at
  /// `release_at` (its dilated walltime bound). O(log n) locate + insert.
  void on_start(JobId id, SimTime release_at, const TakePlan& take);

  /// The job stopped (completed, killed, or cancelled) and its resources
  /// are free again. `release_at` must be the bound passed to `on_start`.
  void on_finish(JobId id, SimTime release_at);

  struct Entry {
    SimTime time;  ///< expected release (walltime bound; may be overrun)
    JobId job = kInvalidJobId;
    TakePlan take;
  };

  [[nodiscard]] const ClusterConfig& config() const { return *config_; }
  /// Free state at the current instant (mirrors `snapshot(cluster)`).
  [[nodiscard]] const ResourceState& free_now() const { return base_free_; }
  /// Release breakpoints, sorted by time (ties: job start order).
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }

  /// Process-unique identity (so a scheduler's cache can never confuse two
  /// timelines that happen to share an address across simulations).
  [[nodiscard]] std::uint64_t id() const { return id_; }
  /// Bumped on every mutation: the dirty flag scheduler passes key on.
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// True when any release breakpoint lies in (after, upto] — the "did a
  /// planning bound cross now since the last pass" staleness probe.
  [[nodiscard]] bool has_release_in(SimTime after, SimTime upto) const;

 private:
  const ClusterConfig* config_;
  ResourceState base_free_;
  std::vector<Entry> entries_;
  std::uint64_t id_;
  std::uint64_t version_ = 0;
};

/// Piecewise-constant view of future free resources: the timeline's
/// releases plus this pass's tentative holds, with a lazy prefix-state
/// cache over the merged breakpoint array.
class FreeProfile {
 public:
  /// Detached profile: unusable until `sync()` (or assignment) gives it a
  /// machine. Schedulers default-construct one member and sync per pass.
  FreeProfile() = default;

  /// `base` is the free state at `now` (normally `snapshot(cluster)`).
  FreeProfile(const ResourceState& base, SimTime now,
              const ClusterConfig* config);

  /// Convenience: base state and releases of all running jobs (via the
  /// context's timeline when it has one, else rebuilt from the running
  /// list — both produce identical profiles).
  static FreeProfile from_context(const SchedContext& ctx);

  /// Incremental re-sync against the context. Returns true on the *clean*
  /// path — the context's timeline is the one this profile was built from,
  /// its version is unchanged, and no delta (release or hold boundary) lies
  /// in (old now, new now] — in which case everything, including holds from
  /// the previous pass and the prefix-state cache, carries over and only
  /// now() advances. Otherwise rebuilds from scratch (holds dropped) and
  /// returns false.
  bool sync(const SchedContext& ctx);

  /// Drop every hold added since the last rebuild, keeping releases (and
  /// the release prefix of the state cache). The clean-sync caller's way to
  /// start a pass fresh without paying a rebuild.
  void drop_holds();

  /// Resources return to the pool at `time` (a running job's expected end).
  void add_release(SimTime time, const TakePlan& take);

  /// Resources are held from `start` to `end` (reservation / tentative
  /// backfill). `start` may equal now() for jobs being started in this pass.
  void add_hold(SimTime start, SimTime end, const TakePlan& take);

  /// Free state as of `time` (>= now): base plus all releases/holds with
  /// effect time <= `time`. The reference is into the prefix-state cache:
  /// it is valid until the next call on this profile, so copy (or
  /// copy-assign) it before querying or mutating the profile again.
  [[nodiscard]] const ResourceState& state_at(SimTime time) const;

  /// Earliest time >= now at which `job` fits *instantaneously*, with the
  /// plan it would get: earliest_fit_window with a zero-length window.
  /// Returns nullopt only if the job does not even fit with every tracked
  /// delta applied.
  ///
  /// Correct for profiles whose deltas after now() only add resources
  /// (releases, plus holds that start at now) — then an instantaneous fit
  /// persists for the job's whole run. With future-start holds present
  /// (conservative reservations), use earliest_fit_window instead.
  struct Fit {
    SimTime time;
    TakePlan plan;
  };
  [[nodiscard]] std::optional<Fit> earliest_fit(const Job& job,
                                                PlacementPolicy policy) const;

  /// Earliest time t >= now at which `job` fits *continuously* over
  /// [t, t + duration_of(plan)): the plan chosen at t must remain
  /// subtractable at every later breakpoint inside the window. This is the
  /// reservation primitive for conservative backfilling, where future holds
  /// make availability non-monotone. `duration_of` maps the plan chosen at
  /// the candidate start to the job's walltime bound (dilation depends on
  /// where the memory comes from); it must not query this profile.
  [[nodiscard]] std::optional<Fit> earliest_fit_window(
      const Job& job, PlacementPolicy policy,
      const std::function<SimTime(const TakePlan&)>& duration_of) const;

  [[nodiscard]] SimTime now() const { return now_; }

  /// Checkpoint for tentative holds: everything added after `mark()` can be
  /// dropped with `rollback(mark)`. Backfill uses this to test "what if I
  /// start candidate C now" without copying the profile.
  using Mark = std::size_t;
  [[nodiscard]] Mark mark() const { return live_; }
  void rollback(Mark m);

  /// All change points (now plus every release/hold boundary at or after
  /// now), sorted and deduplicated. Exposed for tests and for schedulers
  /// that sweep manually.
  [[nodiscard]] std::vector<SimTime> breakpoints() const;

  /// Earliest delta time strictly after `t` (kTimeInfinity if none) — the
  /// sweep's step function, also used by sync() to detect a breakpoint
  /// crossing now.
  [[nodiscard]] SimTime next_change_after(SimTime t) const;

 private:
  void reset(const ResourceState& base, SimTime now,
             const ClusterConfig* config);
  /// Write delta slot live_ (copy-assigned when retained) and count it live.
  void store_delta(SimTime time, const TakePlan& take, bool adds);
  void insert_delta(SimTime time, const TakePlan& take, bool adds);
  /// Drop cached prefix states at or after `t` (a delta at `t` changed).
  void invalidate_cache_from(SimTime t) const;
  /// Grow the prefix-state cache to at least `n` rows, one row (one copy of
  /// the last row plus its time's deltas) at a time. False when every
  /// delta is folded and fewer than `n` rows exist.
  bool ensure_rows(std::size_t n) const;
  /// Extend the prefix-state cache through every delta time <= `t`.
  void ensure_cached_to(SimTime t) const;
  /// Number of cache rows with time <= `t`, after caching them all.
  [[nodiscard]] std::size_t rows_through(SimTime t) const;
  /// State with the first `rows` rows folded in: the base state or the
  /// last of them. Reference dies at the next cache call.
  [[nodiscard]] const ResourceState& row_state(std::size_t rows) const {
    return rows == 0 ? base_ : cache_states_[rows - 1];
  }

  ResourceState base_;
  SimTime now_{};
  const ClusterConfig* config_ = nullptr;
  /// Insertion-ordered delta slots — the mark()/rollback() domain. The
  /// first live_ are live; the rest are retained storage (see the header).
  std::vector<ProfileDelta> deltas_;
  std::size_t live_ = 0;
  /// Indices of live deltas_ in delta_precedes order (ties: insertion
  /// order).
  std::vector<std::uint32_t> ordered_;
  /// Number of leading deltas_ that are timeline releases (drop_holds floor).
  Mark base_mark_ = 0;

  // sync() bookkeeping: which timeline state this profile mirrors.
  bool from_timeline_ = false;
  std::uint64_t timeline_id_ = 0;
  std::uint64_t timeline_version_ = 0;

  // Lazy prefix-state cache: row k holds the state after every delta with
  // time <= cache_times_[k] (one row per distinct delta time, ascending),
  // and cache_consumed_[k] counts the ordered_ entries folded in. Rows at
  // or after a mutated time are truncated; everything earlier survives
  // across queries, holds, rollbacks, and clean syncs. The row count is
  // cache_times_.size(); cache_states_ never shrinks (see the header).
  mutable std::vector<SimTime> cache_times_;
  mutable std::vector<ResourceState> cache_states_;
  mutable std::vector<std::size_t> cache_consumed_;
  /// earliest_fit_window's candidate plan, reused across steps and calls.
  mutable TakePlan plan_;
};

}  // namespace dmsched
