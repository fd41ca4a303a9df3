// Differential test of the engine's dense queue: at every scheduler pass,
// before and after the policy runs, queued_jobs() must equal order_queue
// applied to the queued set as tracked independently — from the lifecycle
// events a trace sink sees (queued adds a job, started removes it) — and
// queued_jobs_after() must name exactly the still-queued jobs the sink saw
// appended since the epoch it is given. Covers every QueueOrder, eager and
// streamed ingestion, on a backlogged (load 1.5) mem-aware-EASY run.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/experiment.hpp"
#include "obs/trace_sink.hpp"
#include "sched/queue_policy.hpp"
#include "testing/builders.hpp"
#include "workload/trace_source.hpp"

namespace dmsched {

// Names the parameter in test listings instead of printing its bytes.
void PrintTo(QueueOrder order, std::ostream* os) { *os << to_string(order); }

namespace {

/// The queued set and the append log, rebuilt from lifecycle events alone.
class QueuedSetSink final : public obs::TraceSink {
 public:
  void on_job_queued(const obs::JobQueued& e) override {
    queued.insert(e.job);
    appended.push_back(e.job);
  }
  void on_job_started(const obs::JobStarted& e) override {
    queued.erase(e.job);
  }
  std::set<JobId> queued;
  std::vector<JobId> appended;
};

/// Runs `inner`, checking the context's queue view around every pass.
class CheckingScheduler final : public Scheduler {
 public:
  CheckingScheduler(std::unique_ptr<Scheduler> inner, const QueuedSetSink& sink,
                    QueueOrder order)
      : inner_(std::move(inner)), sink_(sink), order_(order) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] bool memory_aware() const override {
    return inner_->memory_aware();
  }
  void schedule(SchedContext& ctx) override {
    check(ctx);
    inner_->schedule(ctx);
    check(ctx);
  }

  std::size_t checks = 0;
  std::size_t mismatches = 0;
  std::size_t after_mismatches = 0;
  std::size_t max_depth = 0;
  std::size_t max_suffix = 0;

 private:
  void check(const SchedContext& ctx) {
    std::vector<JobId> expected(sink_.queued.begin(), sink_.queued.end());
    order_queue(
        expected, [&](JobId id) -> const Job& { return ctx.job(id); }, order_,
        ctx.now());
    ++checks;
    if (ctx.queued_jobs() != expected) ++mismatches;
    max_depth = std::max(max_depth, expected.size());

    // An epoch captured at an earlier check names the appends since then:
    // the previous check's (as schedulers use it) and one kept for 64
    // checks, so suffixes span many appends. Epoch 0 names every append
    // (checked with the anchor, as it walks the whole log) and the current
    // epoch none.
    if (ctx.queued_jobs_after(last_.epoch) != still_queued_from(last_)) {
      ++after_mismatches;
    }
    const std::vector<JobId> since_anchor = still_queued_from(anchor_);
    if (ctx.queued_jobs_after(anchor_.epoch) != since_anchor) {
      ++after_mismatches;
    }
    const Mark now{ctx.queue_tail_epoch(), sink_.appended.size()};
    if (now.epoch < last_.epoch || !ctx.queued_jobs_after(now.epoch).empty()) {
      ++after_mismatches;
    }
    max_suffix = std::max(max_suffix, since_anchor.size());
    last_ = now;
    if (checks % 64 == 0) {
      if (ctx.queued_jobs_after(0) != still_queued_from({})) {
        ++after_mismatches;
      }
      anchor_ = now;
    }
  }

  /// An epoch and how many appends the sink had seen when it was captured.
  struct Mark {
    std::uint64_t epoch = 0;
    std::size_t appends = 0;
  };

  /// Jobs the sink saw appended since `mark`, still queued, in append order.
  [[nodiscard]] std::vector<JobId> still_queued_from(Mark mark) const {
    std::vector<JobId> out;
    for (std::size_t i = mark.appends; i < sink_.appended.size(); ++i) {
      if (sink_.queued.count(sink_.appended[i]) != 0) {
        out.push_back(sink_.appended[i]);
      }
    }
    return out;
  }

  Mark last_;
  Mark anchor_;

  std::unique_ptr<Scheduler> inner_;
  const QueuedSetSink& sink_;
  QueueOrder order_;
};

ClusterConfig pooled_cluster() {
  return testing::tiny_cluster(gib(std::int64_t{48}), gib(std::int64_t{32}));
}

Trace backlog_trace() {
  ExperimentConfig c;
  c.cluster = pooled_cluster();
  c.workload_reference_mem = gib(std::int64_t{64});
  c.model = WorkloadModel::kMixed;
  c.jobs = 1500;
  c.seed = 31;
  c.target_load = 1.5;
  return make_workload(c);
}

void expect_view_matches(QueueOrder order, std::size_t lookahead) {
  SCOPED_TRACE(::testing::Message()
               << to_string(order) << " lookahead " << lookahead);
  static const Trace trace = backlog_trace();
  QueuedSetSink sink;
  auto checker = std::make_unique<CheckingScheduler>(
      make_scheduler(SchedulerKind::kMemAwareEasy), sink, order);
  CheckingScheduler& probe = *checker;
  EngineOptions options;
  options.queue_order = order;
  options.submit_lookahead = lookahead;
  options.sink = &sink;
  options.trace_detail = obs::TraceDetail::kLifecycle;
  // The simulation owns the checker, so it must outlive the checks below.
  EagerTraceSource source(trace);
  const std::unique_ptr<SchedulingSimulation> sim =
      lookahead == 0
          ? std::make_unique<SchedulingSimulation>(
                pooled_cluster(), trace, std::move(checker), options)
          : std::make_unique<SchedulingSimulation>(
                pooled_cluster(), source, std::move(checker), options);
  const RunMetrics m = sim->run();
  EXPECT_EQ(m.jobs.size(), trace.size());
  EXPECT_EQ(probe.mismatches, 0u) << "of " << probe.checks << " checks";
  EXPECT_EQ(probe.after_mismatches, 0u) << "of " << probe.checks << " checks";
  // Some suffix must span many appends, or the check proves little.
  EXPECT_GT(probe.max_suffix, 10u);
  // The run must actually build a backlog, or the check proves little.
  EXPECT_GT(probe.max_depth, 100u);
  EXPECT_TRUE(sink.queued.empty());
}

class QueueViewTest : public ::testing::TestWithParam<QueueOrder> {};

TEST_P(QueueViewTest, EagerMatchesIndependentOrdering) {
  expect_view_matches(GetParam(), 0);
}

TEST_P(QueueViewTest, StreamedMatchesIndependentOrdering) {
  expect_view_matches(GetParam(), 256);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrders, QueueViewTest,
    ::testing::Values(QueueOrder::kFcfs, QueueOrder::kShortestFirst,
                      QueueOrder::kLargestFirst, QueueOrder::kWfp),
    [](const ::testing::TestParamInfo<QueueOrder>& info) {
      return std::string(to_string(info.param));
    });

}  // namespace
}  // namespace dmsched
