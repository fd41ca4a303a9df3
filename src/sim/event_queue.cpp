#include "sim/event_queue.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dmsched::sim {

bool EventQueue::before(const Entry& a, const Entry& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.ev.cls != b.ev.cls) return a.ev.cls < b.ev.cls;
  return a.id < b.id;
}

void EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    pos_[heap_[i].id - base_] = static_cast<std::uint32_t>(i);
    i = parent;
  }
  heap_[i] = e;
  pos_[heap_[i].id - base_] = static_cast<std::uint32_t>(i);
}

void EventQueue::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], e)) break;
    heap_[i] = heap_[best];
    pos_[heap_[i].id - base_] = static_cast<std::uint32_t>(i);
    i = best;
  }
  heap_[i] = e;
  pos_[heap_[i].id - base_] = static_cast<std::uint32_t>(i);
}

void EventQueue::clear_slot(EventId id) {
  pos_[id - base_] = kNotPending;
  // Advance past the dead prefix. Each slot is visited at most once after
  // it dies, so the scan is amortized O(1) per event.
  while (dead_prefix_ < pos_.size() && pos_[dead_prefix_] == kNotPending) {
    ++dead_prefix_;
  }
  // Physically drop the dead prefix once it dominates the vector, keeping
  // memory proportional to the live id window (amortized O(1): each
  // compaction moves at most as many slots as died since the last one).
  if (dead_prefix_ > 64 && dead_prefix_ > pos_.size() / 2) {
    pos_.erase(pos_.begin(),
               pos_.begin() + static_cast<std::ptrdiff_t>(dead_prefix_));
    base_ += dead_prefix_;
    dead_prefix_ = 0;
  }
}

void EventQueue::remove_at(std::size_t i) {
  clear_slot(heap_[i].id);
  const std::size_t last = heap_.size() - 1;
  if (i == last) {
    heap_.pop_back();
    return;
  }
  heap_[i] = heap_[last];
  heap_.pop_back();
  // The filled-in entry came from a leaf; it may belong above or below i.
  if (i > 0 && before(heap_[i], heap_[(i - 1) / kArity])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

EventId EventQueue::push(SimTime time, Event ev) {
  DMSCHED_ASSERT(time >= now_, "EventQueue::push: time travel into the past");
  DMSCHED_ASSERT(heap_.size() < kNotPending, "EventQueue: heap full");
  const EventId id = next_id_++;
  pos_.push_back(kNotPending);  // slot id - base_; set by sift_up below
  peak_id_window_ = std::max(peak_id_window_, pos_.size());
  heap_.push_back({time, id, ev});
  sift_up(heap_.size() - 1);
  return id;
}

bool EventQueue::cancel(EventId id) {
  DMSCHED_ASSERT(id != kInvalidEventId, "cancel(): invalid event id");
  // The position slot answers "pending?" in O(1): an id below the window
  // base or at/above next_id_ was fired/cancelled long ago or never issued,
  // and a dead slot inside the window is fired or already cancelled. Ids
  // are never reused, so every false is permanent.
  if (id < base_ || id - base_ >= pos_.size()) return false;
  const std::uint32_t p = pos_[id - base_];
  if (p == kNotPending) return false;
  remove_at(p);
  return true;
}

Event EventQueue::pop() {
  DMSCHED_ASSERT(!empty(), "EventQueue::pop on empty queue");
  const Entry e = heap_.front();
  remove_at(0);
  now_ = e.time;
  ++processed_;
  return e.ev;
}

}  // namespace dmsched::sim
