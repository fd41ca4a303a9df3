// A test-only Scheduler that is cold on every pass: before each schedule()
// call it builds a fresh inner scheduler through make_scheduler, so every
// cache, carried profile and retained slot starts empty. A run under it must
// equal the warm run bit for bit — the proof obligation behind every
// incremental pass. A difference means some scheduler carries state across
// passes that is not a cache.
#pragma once

#include <memory>

#include "core/factory.hpp"
#include "sched/scheduler.hpp"

namespace dmsched::testing {

class ColdScheduler final : public Scheduler {
 public:
  explicit ColdScheduler(SchedulerKind kind, MemAwareOptions options = {})
      : kind_(kind), options_(options), inner_(make_scheduler(kind, options)) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] bool memory_aware() const override {
    return inner_->memory_aware();
  }
  // stats() stays nullptr: the inner scheduler, and its counters, are
  // replaced every pass.
  void schedule(SchedContext& ctx) override {
    inner_ = make_scheduler(kind_, options_);
    inner_->schedule(ctx);
  }

 private:
  SchedulerKind kind_;
  MemAwareOptions options_;
  std::unique_ptr<Scheduler> inner_;
};

}  // namespace dmsched::testing
