#include "layers.hpp"

#include <utility>

namespace perfbench {

using namespace dmsched;

void SpanClock::close() {
  const Open span = open_.back();
  open_.pop_back();
  const std::int64_t ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           span.start)
          .count();
  SpanTotals& t = totals_[static_cast<std::size_t>(span.layer)];
  ++t.count;
  t.total_ns += ns;
  t.self_ns += ns - span.child_ns;
  if (!open_.empty()) open_.back().child_ns += ns;
  if (span.layer == Layer::kPass) pass_ns_.push_back(ns);
}

/// Forwards every SchedContext virtual — the defaulted ones too. Leaving out
/// `timeline`, `queue_order_stable`, `queue_tail_epoch`, `queued_jobs_after`
/// or `migration` would silently fall back to the base-class defaults and
/// turn the schedulers' incremental fast paths off.
class Probe::TimedContext final : public SchedContext {
 public:
  TimedContext(SpanClock& clock, LayerCounts& counts)
      : clock_(clock), counts_(counts) {}

  void bind(SchedContext& inner) { inner_ = &inner; }

  [[nodiscard]] SimTime now() const override { return inner_->now(); }
  [[nodiscard]] const Cluster& cluster() const override {
    return inner_->cluster();
  }
  [[nodiscard]] const Job& job(JobId id) const override {
    return inner_->job(id);
  }
  [[nodiscard]] std::vector<JobId> queued_jobs() const override {
    const SpanClock::Scope span(clock_, Layer::kQueue);
    std::vector<JobId> ids = inner_->queued_jobs();
    ++counts_.queue_calls;
    counts_.queue_entries += ids.size();
    return ids;
  }
  [[nodiscard]] std::vector<RunningJob> running_jobs() const override {
    const SpanClock::Scope span(clock_, Layer::kRunning);
    std::vector<RunningJob> running = inner_->running_jobs();
    counts_.running_entries += running.size();
    return running;
  }
  [[nodiscard]] PlacementPolicy placement() const override {
    return inner_->placement();
  }
  [[nodiscard]] const SlowdownModel& slowdown() const override {
    return inner_->slowdown();
  }
  [[nodiscard]] const Topology& topology() const override {
    return inner_->topology();
  }
  [[nodiscard]] MigrationPolicy migration() const override {
    return inner_->migration();
  }
  [[nodiscard]] const AvailabilityTimeline* timeline() const override {
    return inner_->timeline();
  }
  [[nodiscard]] bool queue_order_stable() const override {
    return inner_->queue_order_stable();
  }
  [[nodiscard]] std::uint64_t queue_tail_epoch() const override {
    return inner_->queue_tail_epoch();
  }
  [[nodiscard]] std::vector<JobId> queued_jobs_after(
      std::uint64_t epoch) const override {
    const SpanClock::Scope span(clock_, Layer::kQueue);
    std::vector<JobId> ids = inner_->queued_jobs_after(epoch);
    ++counts_.queue_calls;
    counts_.queue_entries += ids.size();
    return ids;
  }
  void start_job(JobId id, const Allocation& alloc) override {
    const SpanClock::Scope span(clock_, Layer::kStart);
    ++counts_.starts;
    inner_->start_job(id, alloc);
  }

 private:
  SchedContext* inner_ = nullptr;
  SpanClock& clock_;
  LayerCounts& counts_;
};

class Probe::TimedScheduler final : public Scheduler {
 public:
  TimedScheduler(std::unique_ptr<Scheduler> inner, SpanClock& clock,
                 LayerCounts& counts)
      : inner_(std::move(inner)), clock_(clock), context_(clock, counts) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] const SchedulerStats* stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] bool memory_aware() const override {
    return inner_->memory_aware();
  }
  void schedule(SchedContext& ctx) override {
    const SpanClock::Scope span(clock_, Layer::kPass);
    // One context object for the whole run, rebound each pass, so a policy
    // never sees its context's address change.
    context_.bind(ctx);
    inner_->schedule(context_);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
  SpanClock& clock_;
  TimedContext context_;
};

class Probe::TimedSource final : public TraceSource {
 public:
  TimedSource(TraceSource& inner, SpanClock& clock, LayerCounts& counts)
      : inner_(inner), clock_(clock), counts_(counts) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }
  std::optional<Job> next() override {
    const SpanClock::Scope span(clock_, Layer::kPull);
    ++counts_.pulls;
    return inner_.next();
  }
  [[nodiscard]] std::optional<std::size_t> size_hint() const override {
    return inner_.size_hint();
  }

 private:
  TraceSource& inner_;
  SpanClock& clock_;
  LayerCounts& counts_;
};

class Probe::TimedSink final : public obs::TraceSink {
 public:
  TimedSink(SpanClock& clock, LayerCounts& counts)
      : clock_(clock), counts_(counts) {}

  void on_run_begin(const obs::RunInfo& info) override {
    forward([&] { inner_.on_run_begin(info); });
  }
  void on_job_queued(const obs::JobQueued& e) override {
    forward([&] { inner_.on_job_queued(e); });
  }
  void on_job_rejected(const obs::JobRejected& e) override {
    forward([&] { inner_.on_job_rejected(e); });
  }
  void on_job_started(const obs::JobStarted& e) override {
    forward([&] { inner_.on_job_started(e); });
  }
  void on_job_migrated(const obs::JobMigrated& e) override {
    forward([&] { inner_.on_job_migrated(e); });
  }
  void on_job_finished(const obs::JobFinished& e) override {
    forward([&] { inner_.on_job_finished(e); });
  }
  void on_pass(const obs::PassSpan& e) override {
    forward([&] { inner_.on_pass(e); });
  }
  void on_gauges(const obs::GaugeSample& e) override {
    forward([&] { inner_.on_gauges(e); });
  }
  void on_run_end(SimTime makespan) override {
    forward([&] { inner_.on_run_end(makespan); });
  }

 private:
  template <typename F>
  void forward(F&& call) {
    const SpanClock::Scope span(clock_, Layer::kSink);
    ++counts_.sink_calls;
    call();
  }

  obs::RecordingSink inner_;
  SpanClock& clock_;
  LayerCounts& counts_;
};

Probe::Probe() = default;
Probe::~Probe() = default;

std::unique_ptr<Scheduler> Probe::wrap(std::unique_ptr<Scheduler> inner) {
  inner_scheduler_ = inner.get();
  return std::make_unique<TimedScheduler>(std::move(inner), clock_, counts_);
}

TraceSource& Probe::wrap(TraceSource& inner) {
  source_ = std::make_unique<TimedSource>(inner, clock_, counts_);
  return *source_;
}

obs::TraceSink* Probe::sink() {
  if (!sink_) sink_ = std::make_unique<TimedSink>(clock_, counts_);
  return sink_.get();
}

RunMetrics Probe::run(SchedulingSimulation& sim) {
  RunMetrics metrics;
  {
    const SpanClock::Scope span(clock_, Layer::kRun);
    metrics = sim.run();
  }
  counts_.passes = clock_.totals(Layer::kPass).count;
  if (inner_scheduler_ != nullptr && inner_scheduler_->stats() != nullptr) {
    const SchedulerStats& s = *inner_scheduler_->stats();
    counts_.fast_passes = s.fast_passes;
    counts_.jobs_examined = s.jobs_examined;
    counts_.plans_attempted = s.plans_attempted;
  }
  return metrics;
}

}  // namespace perfbench
