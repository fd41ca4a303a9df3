// Per-layer attribution measured from outside the dmsched library.
//
// Nothing here touches the library's sources: every span is recorded by a
// forwarding wrapper around one of its public interfaces —
//  - `sched/`:    a Scheduler that times `schedule` around the factory's
//                 scheduler;
//  - `core/`:     the SchedContext that wrapper hands to the real scheduler,
//                 timing the calls back into the engine;
//  - `workload/`: a TraceSource that times `next`;
//  - `obs/`:      a TraceSink that times its forwards into a RecordingSink.
// Spans aggregate in memory (count, total, self time; every pass duration is
// kept for percentiles) and are read once the run ends. A layer's self time
// is its total minus the time of the spans nested inside it.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine.hpp"
#include "obs/recording_sink.hpp"
#include "sched/scheduler.hpp"
#include "workload/trace_source.hpp"

namespace perfbench {

/// The boundaries a span is recorded at.
enum class Layer : std::uint8_t {
  kRun,      ///< SchedulingSimulation::run (the root)
  kPass,     ///< Scheduler::schedule
  kQueue,    ///< SchedContext::queued_jobs / queued_jobs_after
  kRunning,  ///< SchedContext::running_jobs
  kStart,    ///< SchedContext::start_job (includes the cluster/ commit)
  kPull,     ///< TraceSource::next
  kSink,     ///< any TraceSink callback
};
inline constexpr std::size_t kLayerCount = 7;

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;  ///< total minus nested spans
};

/// A stack of open spans over one thread's calls.
class SpanClock {
 public:
  /// Closes its span when it goes out of scope.
  class Scope {
   public:
    Scope(SpanClock& clock, Layer layer) : clock_(clock) { clock.open(layer); }
    ~Scope() { clock_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanClock& clock_;
  };

  [[nodiscard]] const SpanTotals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  /// Duration of every closed kPass span, in close order.
  [[nodiscard]] const std::vector<std::int64_t>& pass_ns() const {
    return pass_ns_;
  }

 private:
  using Clock = std::chrono::steady_clock;
  struct Open {
    Layer layer;
    Clock::time_point start;
    std::int64_t child_ns = 0;
  };

  void open(Layer layer) { open_.push_back({layer, Clock::now(), 0}); }
  void close();

  std::vector<Open> open_;
  std::array<SpanTotals, kLayerCount> totals_{};
  std::vector<std::int64_t> pass_ns_;
};

/// Work counts: clock-free, so a deterministic run repeats them exactly.
struct LayerCounts {
  std::uint64_t passes = 0;
  std::uint64_t fast_passes = 0;
  std::uint64_t jobs_examined = 0;
  std::uint64_t plans_attempted = 0;
  std::uint64_t starts = 0;
  std::uint64_t queue_calls = 0;
  std::uint64_t queue_entries = 0;
  std::uint64_t running_entries = 0;
  std::uint64_t pulls = 0;
  std::uint64_t sink_calls = 0;

  bool operator==(const LayerCounts&) const = default;
};

/// Wraps one simulation's scheduler, source and sink, and times its run.
/// Single-use and single-threaded, like the simulation it observes. The
/// wrappers it hands out hold references to it, so it must outlive the
/// simulation.
class Probe {
 public:
  Probe();
  ~Probe();
  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  /// A forwarding scheduler around `inner` that records kPass spans and
  /// hands `inner` a forwarding context recording the core/ spans.
  [[nodiscard]] std::unique_ptr<dmsched::Scheduler> wrap(
      std::unique_ptr<dmsched::Scheduler> inner);
  /// A forwarding source around `inner` recording kPull spans.
  [[nodiscard]] dmsched::TraceSource& wrap(dmsched::TraceSource& inner);
  /// A forwarding sink into a RecordingSink, recording kSink spans.
  [[nodiscard]] dmsched::obs::TraceSink* sink();

  /// Run `sim` under the root span. Call once.
  dmsched::RunMetrics run(dmsched::SchedulingSimulation& sim);

  [[nodiscard]] const SpanClock& clock() const { return clock_; }
  /// Valid after run().
  [[nodiscard]] const LayerCounts& counts() const { return counts_; }

 private:
  class TimedContext;
  class TimedScheduler;
  class TimedSource;
  class TimedSink;

  SpanClock clock_;
  LayerCounts counts_;
  const dmsched::Scheduler* inner_scheduler_ = nullptr;
  std::unique_ptr<TimedSource> source_;
  std::unique_ptr<TimedSink> sink_;
};

}  // namespace perfbench
