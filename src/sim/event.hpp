// Event record types for the discrete-event engine.
#pragma once

#include <cstdint>
#include <type_traits>

#include "common/time.hpp"

namespace dmsched::sim {

/// Identifies a scheduled event; used for cancellation.
using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

/// Tie-break class for events that share a timestamp. Lower runs first.
///
/// The order encodes batch-scheduler semantics: releases happen before
/// arrivals so a completion at time T frees resources for a job submitted at
/// T; scheduling passes run after all state changes at T are applied.
enum class EventClass : std::int8_t {
  kCompletion = 0,  ///< job finished / killed — releases resources
  kSubmission = 1,  ///< job arrives in the queue
  kTimer = 2,       ///< metric sampling, periodic hooks
  kMigration = 3,   ///< data movement between memory tiers (retier + re-price)
  kSchedule = 4,    ///< scheduling pass
};

/// A pending event as plain data: what happens, and to whom. The owner of
/// the event loop gives the tag its meaning (the core engine stores a job
/// id, or its invalid-id sentinel for events about no single job) and
/// routes each popped event with one switch over the class. No callback
/// travels with an event, so a queue of them can be copied or snapshotted.
struct Event {
  EventClass cls;
  std::uint32_t tag;
};
static_assert(std::is_trivially_copyable_v<Event>);

}  // namespace dmsched::sim
