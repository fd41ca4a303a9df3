// Pending-event set and simulation clock: an indexed d-ary min-heap with a
// stable total order and O(log n) cancellation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event.hpp"

namespace dmsched::sim {

/// Min-heap of events ordered by (time, class, id), plus the clock.
///
/// Ids are issued in push order, so the id makes the order total and
/// insertion-stable, which is what makes whole simulations bit-reproducible.
/// The heap is *indexed*: a handle → heap-position map keeps every pending
/// id addressable, so `cancel` removes its entry in O(log n) (no tombstones,
/// no scans). The arity is an internal layout choice — the comparator's
/// total order fully determines pop order, so observable behaviour is
/// identical at any d (see src/README.md, "Determinism is a contract").
///
/// The event loop is the caller's: `while (!q.empty()) dispatch(q.pop());`.
/// `pop()` moves the clock to the popped event's time; handlers may push
/// (at `now()` or later) and cancel freely, and same-time events pop in
/// class-then-insertion order.
class EventQueue {
 public:
  /// Insert an event at `time` (must be >= now()); returns its id (never
  /// kInvalidEventId).
  EventId push(SimTime time, Event ev);

  /// Cancel a pending event. Returns false if it already fired or was
  /// already cancelled (ids are never reused, so a stale id stays false
  /// forever).
  bool cancel(EventId id);

  /// True when no live events remain.
  [[nodiscard]] bool empty() const { return heap_.empty(); }

  /// Pop the earliest live event and advance now() to its time. Requires
  /// !empty().
  Event pop();

  /// Time of the last popped event (zero before the first pop).
  [[nodiscard]] SimTime now() const { return now_; }

  /// Events popped over the queue's lifetime.
  [[nodiscard]] std::size_t events_processed() const { return processed_; }

  /// Number of live (non-cancelled) events.
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// Width of the live id window [base_, base_ + id_window()): the dense
  /// index's memory tracks this span between the oldest still-tracked and
  /// the newest issued id — not the total events ever pushed.
  [[nodiscard]] std::size_t id_window() const { return pos_.size(); }

  /// Largest id window ever observed. This is the O(memory) figure bounded
  /// submission look-ahead shrinks from O(trace) to O(window); the
  /// streaming-ingestion bench reports and enforces it.
  [[nodiscard]] std::size_t peak_id_window() const { return peak_id_window_; }

 private:
  /// Heap arity. 4 keeps the tree shallow (fewer cache lines per sift)
  /// while the min-of-children scan stays one cache line of entries.
  static constexpr std::size_t kArity = 4;

  struct Entry {
    SimTime time;
    EventId id;
    Event ev;
  };
  /// The total order: earlier entries compare true.
  static bool before(const Entry& a, const Entry& b);

  /// Move heap_[i] toward the root/leaves until the heap property holds,
  /// maintaining pos_ for every entry moved.
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Remove the entry at heap position i (fills the hole with the last
  /// entry and re-sifts). Clears the id's position slot.
  void remove_at(std::size_t i);

  /// Mark `id` no longer pending and advance/compact the dead prefix.
  void clear_slot(EventId id);

  std::vector<Entry> heap_;
  /// The index: heap position per id, or kNotPending once fired/cancelled.
  /// Ids are issued sequentially, so instead of a hash map this is a dense
  /// vector over the live id window [base_, base_ + pos_.size()): lookups
  /// are one subtract + one load, with no hashing on the push/pop hot path.
  /// base_ advances past the all-dead prefix (amortized O(1) — each slot is
  /// scanned once after it dies, and physical compaction halves the vector),
  /// so memory tracks the window between the oldest and newest pending id,
  /// not the total events ever pushed.
  static constexpr std::uint32_t kNotPending = UINT32_MAX;
  std::vector<std::uint32_t> pos_;
  EventId base_ = 1;
  std::size_t dead_prefix_ = 0;
  std::size_t peak_id_window_ = 0;
  EventId next_id_ = 1;
  SimTime now_{};
  std::size_t processed_ = 0;
};

}  // namespace dmsched::sim
