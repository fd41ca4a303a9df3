// The engine's job-record contract, the same under both constructors: a
// record is served from the moment its job is pulled until it turns
// terminal, and records live in one dense window over the live id range
// whose dead prefix is compacted away. Looking up a finished or not yet
// pulled job dies; lookups after a compaction still resolve to the right
// job.
#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/factory.hpp"
#include "sched/queue_policy.hpp"
#include "testing/builders.hpp"
#include "workload/trace_source.hpp"

namespace dmsched {
namespace {

using testing::job;

/// FCFS, looking up job `probe` once: at the first pass at or after `at`.
class ProbingScheduler final : public Scheduler {
 public:
  ProbingScheduler(JobId probe, SimTime at)
      : inner_(make_scheduler(SchedulerKind::kFcfs)), probe_(probe), at_(at) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void schedule(SchedContext& ctx) override {
    if (!probed_ && ctx.now() >= at_) {
      probed_ = true;
      (void)ctx.job(probe_);
    }
    inner_->schedule(ctx);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
  JobId probe_;
  SimTime at_;
  bool probed_ = false;
};

/// Runs `sched` on `trace` through the Trace constructor, or through the
/// TraceSource constructor over an EagerTraceSource.
RunMetrics run(const Trace& trace, bool via_source, std::size_t lookahead,
               std::unique_ptr<Scheduler> sched,
               std::uint64_t* digest = nullptr) {
  EngineOptions options;
  options.submit_lookahead = lookahead;
  options.queue_order = QueueOrder::kShortestFirst;
  EagerTraceSource source(trace);
  const std::unique_ptr<SchedulingSimulation> sim =
      via_source ? std::make_unique<SchedulingSimulation>(
                       testing::tiny_cluster(), source, std::move(sched),
                       options)
                 : std::make_unique<SchedulingSimulation>(
                       testing::tiny_cluster(), trace, std::move(sched),
                       options);
  RunMetrics m = sim->run();
  if (digest != nullptr) *digest = sim->event_digest();
  return m;
}

/// Four one-hour jobs, two hours apart: each finishes before the next
/// submits.
Trace spaced_trace() {
  return testing::trace_of({job(0).at_h(0.0), job(1).at_h(2.0),
                            job(2).at_h(4.0), job(3).at_h(6.0)});
}

TEST(JobRecordsDeathTest, FinishedJobDiesUnderTheTraceConstructor) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Job 0 finished at 1 h; the Trace constructor reads the same record
  // window as the source one, so it must refuse too.
  EXPECT_DEATH((void)run(spaced_trace(), false, 0,
                         std::make_unique<ProbingScheduler>(0, hours(2))),
               "not a live job");
}

TEST(JobRecordsDeathTest, FinishedJobDiesUnderTheSourceConstructor) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH((void)run(spaced_trace(), true, 0,
                         std::make_unique<ProbingScheduler>(0, hours(2))),
               "not a live job");
}

TEST(JobRecordsDeathTest, UnpulledJobDiesUnderBothConstructors) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // At look-ahead 1 the first pass has pulled jobs 0 and 1 only.
  for (const bool via_source : {false, true}) {
    EXPECT_DEATH((void)run(spaced_trace(), via_source, 1,
                           std::make_unique<ProbingScheduler>(3, SimTime{})),
                 "not a live job")
        << (via_source ? "source" : "trace");
  }
}

TEST(JobRecords, QueuedAndPulledJobsResolve) {
  // At the first pass job 0 is queued and, at look-ahead 0, job 1 is
  // pulled but not yet submitted: both records are served.
  for (const bool via_source : {false, true}) {
    for (const JobId probe : {0u, 1u}) {
      EXPECT_EQ(run(spaced_trace(), via_source, 0,
                    std::make_unique<ProbingScheduler>(probe, SimTime{}))
                    .completed,
                4u);
    }
  }
}

struct RecordChecks {
  std::size_t checks = 0;
  std::size_t mismatches = 0;
};

/// EASY, checking before every pass that each queued and running job's
/// record is that job's, field by field, against the trace.
class RecordCheckingScheduler final : public Scheduler {
 public:
  RecordCheckingScheduler(const Trace& trace, RecordChecks& out)
      : inner_(make_scheduler(SchedulerKind::kEasy)), trace_(trace), out_(out) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void schedule(SchedContext& ctx) override {
    for (const JobId id : ctx.queued_jobs()) check(ctx, id);
    for (const RunningJob& r : ctx.running_jobs()) check(ctx, r.id);
    inner_->schedule(ctx);
  }

 private:
  void check(const SchedContext& ctx, JobId id) {
    const Job& got = ctx.job(id);
    const Job& want = trace_.job(id);
    ++out_.checks;
    if (got.id != id || got.submit != want.submit ||
        got.nodes != want.nodes || got.walltime != want.walltime ||
        got.runtime != want.runtime) {
      ++out_.mismatches;
    }
  }

  std::unique_ptr<Scheduler> inner_;
  const Trace& trace_;
  RecordChecks& out_;
};

constexpr JobId kPhaseOneJobs = 1200;
constexpr JobId kJobs = 1401;

/// Job 0 holds four nodes for 500 h. Jobs 1..1200 come in bursts of six
/// over the next 200 h and all finish long before it, so the records' dead
/// prefix stays empty until job 0 ends and then spans 1,200 records at
/// once: one large compaction. Jobs 1201..1400 arrive after it, in bursts
/// that queue, so shortest-first ordering reads records that the
/// compaction moved. The test checks this premise on the outcomes.
Trace long_head_trace() {
  std::vector<Job> jobs;
  jobs.push_back(job(0).at_h(0.0).nodes(4).runtime_h(500.0));
  for (JobId i = 1; i < kJobs; ++i) {
    const double burst = static_cast<double>((i - 1) / 6);
    const double at = i <= kPhaseOneJobs
                          ? 1.0 + burst
                          : 502.0 + (burst - 200.0) * 1.5;
    const double run_h = 0.2 + 0.1 * static_cast<double>((i * 13) % 7);
    jobs.push_back(job(i)
                       .at_h(at)
                       .nodes(1 + static_cast<std::int32_t>((i * 7) % 4))
                       .runtime_h(run_h)
                       .walltime_h(run_h * (1.0 + (i % 3))));
  }
  return testing::trace_of(std::move(jobs));
}

TEST(JobRecords, CompactionKeepsRecordsAndScheduleIdentical) {
  const Trace trace = long_head_trace();
  std::uint64_t ref_digest = 0;
  RunMetrics ref;
  bool have_ref = false;
  for (const bool via_source : {false, true}) {
    for (const std::size_t lookahead : {0u, 1u, 64u}) {
      SCOPED_TRACE(::testing::Message()
                   << (via_source ? "source" : "trace") << " lookahead "
                   << lookahead);
      RecordChecks checks;
      std::uint64_t digest = 0;
      const RunMetrics m = run(
          trace, via_source, lookahead,
          std::make_unique<RecordCheckingScheduler>(trace, checks), &digest);
      EXPECT_EQ(m.completed, trace.size());
      EXPECT_EQ(checks.mismatches, 0u) << "of " << checks.checks;
      EXPECT_GT(checks.checks, 2000u);
      ASSERT_EQ(m.jobs.size(), kJobs);
      const SimTime head_end = m.jobs[0].end;
      EXPECT_EQ(head_end, hours(500));
      bool phase_two_queued = false;
      for (JobId i = 1; i < kJobs; ++i) {
        if (i <= kPhaseOneJobs) {
          EXPECT_LT(m.jobs[i].end, head_end) << "job " << i;
        } else {
          EXPECT_GT(m.jobs[i].submit, head_end) << "job " << i;
          phase_two_queued |= m.jobs[i].start > m.jobs[i].submit;
        }
      }
      EXPECT_TRUE(phase_two_queued);
      if (!have_ref) {
        ref = m;
        ref_digest = digest;
        have_ref = true;
        continue;
      }
      EXPECT_EQ(digest, ref_digest);
      for (std::size_t i = 0; i < m.jobs.size(); ++i) {
        EXPECT_EQ(m.jobs[i].start, ref.jobs[i].start) << "job " << i;
        EXPECT_EQ(m.jobs[i].end, ref.jobs[i].end) << "job " << i;
      }
      EXPECT_EQ(m.makespan, ref.makespan);
      EXPECT_EQ(m.mean_bsld, ref.mean_bsld);
      EXPECT_EQ(m.node_utilization, ref.node_utilization);
    }
  }
}

}  // namespace
}  // namespace dmsched
