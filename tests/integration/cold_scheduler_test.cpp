// Cold-scheduler differential: every scheduler, run warm (one instance
// keeping its caches across passes) and cold (testing::ColdScheduler, a
// fresh instance every pass), must produce bit-identical RunMetrics and
// event digests — eager and streamed, under every queue order, on prefixes
// of the memory-stressed, pool-contended and golden-baseline scenarios. The
// unit-level fast-vs-fresh checks (profile_incremental_test) use hand-built
// states; this one drives the caches through whole runs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/factory.hpp"
#include "testing/cold_scheduler.hpp"
#include "testing/equality.hpp"
#include "workload/scenarios.hpp"

namespace dmsched {
namespace {

using testing::ColdScheduler;
using testing::expect_metrics_equal;

struct RunResult {
  RunMetrics metrics;
  std::uint64_t digest = 0;
};

constexpr std::size_t kJobs = 200;
constexpr std::size_t kLookahead = 7;

EngineOptions options(QueueOrder order, std::size_t lookahead) {
  EngineOptions opts;
  opts.queue_order = order;
  opts.submit_lookahead = lookahead;
  opts.sample_interval = minutes(30);
  opts.checkpoint_interval = hours(2);
  return opts;
}

RunResult finish(SchedulingSimulation& sim) {
  RunResult r;
  r.metrics = sim.run();
  r.digest = sim.event_digest();
  return r;
}

RunResult run_eager(const Scenario& s, std::unique_ptr<Scheduler> sched,
                    QueueOrder order) {
  SchedulingSimulation sim(s.cluster, s.trace, std::move(sched),
                           options(order, 0));
  return finish(sim);
}

RunResult run_streamed(const std::string& name,
                       std::unique_ptr<Scheduler> sched, QueueOrder order) {
  ScenarioStream stream = make_scenario_stream(name, {.jobs = kJobs});
  SchedulingSimulation sim(stream.cluster, *stream.source, std::move(sched),
                           options(order, kLookahead));
  return finish(sim);
}

std::vector<SchedulerKind> every_kind() {
  std::vector<SchedulerKind> kinds = all_scheduler_kinds();
  kinds.push_back(SchedulerKind::kResourceAwareEasy);
  return kinds;
}

TEST(ColdSchedulerDifferential, ColdRunsEqualWarmRuns) {
  for (const std::string name :
       {"memory-stressed", "pool-contended", "golden-baseline"}) {
    const Scenario s = make_scenario(name, {.jobs = kJobs});
    for (const SchedulerKind kind : every_kind()) {
      for (const QueueOrder order :
           {QueueOrder::kFcfs, QueueOrder::kShortestFirst,
            QueueOrder::kLargestFirst, QueueOrder::kWfp}) {
        SCOPED_TRACE(name + " / " + to_string(kind) + " / " +
                     to_string(order));
        {
          SCOPED_TRACE("eager");
          const RunResult warm = run_eager(s, make_scheduler(kind), order);
          const RunResult cold =
              run_eager(s, std::make_unique<ColdScheduler>(kind), order);
          expect_metrics_equal(warm.metrics, cold.metrics);
          EXPECT_EQ(warm.digest, cold.digest);
          EXPECT_EQ(warm.metrics.label, cold.metrics.label);
        }
        {
          SCOPED_TRACE("streamed");
          const RunResult warm = run_streamed(name, make_scheduler(kind), order);
          const RunResult cold =
              run_streamed(name, std::make_unique<ColdScheduler>(kind), order);
          expect_metrics_equal(warm.metrics, cold.metrics);
          EXPECT_EQ(warm.digest, cold.digest);
        }
      }
    }
  }
}

}  // namespace
}  // namespace dmsched
