// Bit-for-bit comparisons for the differential harnesses: RunMetrics (eager
// vs streamed, warm vs cold scheduler, memory-only vs all-axes policy) and
// take plans (into-form vs fresh kernel, row cursor vs reference sweep).
// EXPECT_EQ on doubles is deliberate: the contract is bit-reproducibility,
// not tolerance. The metrics label is the one field not compared — it names
// the policy, which some differentials vary by design.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "memory/placement.hpp"

namespace dmsched::testing {

inline void expect_plans_equal(const TakePlan& a, const TakePlan& b) {
  EXPECT_EQ(a.local_per_node, b.local_per_node);
  EXPECT_EQ(a.far_per_node, b.far_per_node);
  EXPECT_EQ(a.bb_bytes, b.bb_bytes);
  ASSERT_EQ(a.takes.size(), b.takes.size());
  for (std::size_t i = 0; i < a.takes.size(); ++i) {
    SCOPED_TRACE("slice " + std::to_string(i));
    EXPECT_EQ(a.takes[i].rack, b.takes[i].rack);
    EXPECT_EQ(a.takes[i].nodes, b.takes[i].nodes);
    EXPECT_EQ(a.takes[i].rack_pool_bytes, b.takes[i].rack_pool_bytes);
    EXPECT_EQ(a.takes[i].global_pool_bytes, b.takes[i].global_pool_bytes);
    EXPECT_EQ(a.takes[i].gpus, b.takes[i].gpus);
    EXPECT_EQ(a.takes[i].neighbor_pool_bytes, b.takes[i].neighbor_pool_bytes);
  }
}

inline void expect_outcomes_equal(const std::vector<JobOutcome>& a,
                                  const std::vector<JobOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i));
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].fate, b[i].fate);
    EXPECT_EQ(a[i].submit.usec(), b[i].submit.usec());
    EXPECT_EQ(a[i].start.usec(), b[i].start.usec());
    EXPECT_EQ(a[i].end.usec(), b[i].end.usec());
    EXPECT_EQ(a[i].dilation, b[i].dilation);
    EXPECT_EQ(a[i].far_rack.count(), b[i].far_rack.count());
    EXPECT_EQ(a[i].far_neighbor.count(), b[i].far_neighbor.count());
    EXPECT_EQ(a[i].far_global.count(), b[i].far_global.count());
    EXPECT_EQ(a[i].nodes, b[i].nodes);
    EXPECT_EQ(a[i].mem_per_node.count(), b[i].mem_per_node.count());
    EXPECT_EQ(a[i].runtime.usec(), b[i].runtime.usec());
    EXPECT_EQ(a[i].sensitivity, b[i].sensitivity);
    EXPECT_EQ(a[i].user, b[i].user);
  }
}

inline void expect_windows_equal(const std::vector<MetricsWindow>& a,
                                 const std::vector<MetricsWindow>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    EXPECT_EQ(a[i].start.usec(), b[i].start.usec());
    EXPECT_EQ(a[i].end.usec(), b[i].end.usec());
    EXPECT_EQ(a[i].busy_node_seconds, b[i].busy_node_seconds);
    EXPECT_EQ(a[i].queued_job_seconds, b[i].queued_job_seconds);
    EXPECT_EQ(a[i].running_job_seconds, b[i].running_job_seconds);
    EXPECT_EQ(a[i].rack_pool_gib_seconds, b[i].rack_pool_gib_seconds);
    EXPECT_EQ(a[i].global_pool_gib_seconds, b[i].global_pool_gib_seconds);
    EXPECT_EQ(a[i].jobs_submitted, b[i].jobs_submitted);
    EXPECT_EQ(a[i].jobs_started, b[i].jobs_started);
    EXPECT_EQ(a[i].jobs_finished, b[i].jobs_finished);
    EXPECT_EQ(a[i].jobs_rejected, b[i].jobs_rejected);
  }
}

inline void expect_metrics_equal(const RunMetrics& a, const RunMetrics& b) {
  expect_outcomes_equal(a.jobs, b.jobs);
  expect_windows_equal(a.windows, b.windows);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    SCOPED_TRACE("sample " + std::to_string(i));
    EXPECT_EQ(a.series[i].time.usec(), b.series[i].time.usec());
    EXPECT_EQ(a.series[i].busy_nodes, b.series[i].busy_nodes);
    EXPECT_EQ(a.series[i].queued_jobs, b.series[i].queued_jobs);
    EXPECT_EQ(a.series[i].running_jobs, b.series[i].running_jobs);
    EXPECT_EQ(a.series[i].rack_pool_used.count(),
              b.series[i].rack_pool_used.count());
    EXPECT_EQ(a.series[i].global_pool_used.count(),
              b.series[i].global_pool_used.count());
  }
  EXPECT_EQ(a.makespan.usec(), b.makespan.usec());
  EXPECT_EQ(a.node_utilization, b.node_utilization);
  EXPECT_EQ(a.rack_pool_utilization, b.rack_pool_utilization);
  EXPECT_EQ(a.rack_pool_peak, b.rack_pool_peak);
  EXPECT_EQ(a.global_pool_utilization, b.global_pool_utilization);
  EXPECT_EQ(a.global_pool_peak, b.global_pool_peak);
  EXPECT_EQ(a.rack_pool_busiest_peak, b.rack_pool_busiest_peak);
  EXPECT_EQ(a.gpu_utilization, b.gpu_utilization);
  EXPECT_EQ(a.gpu_peak, b.gpu_peak);
  EXPECT_EQ(a.bb_utilization, b.bb_utilization);
  EXPECT_EQ(a.bb_peak, b.bb_peak);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.killed, b.killed);
  EXPECT_EQ(a.rejected, b.rejected);
  EXPECT_EQ(a.mean_wait_hours, b.mean_wait_hours);
  EXPECT_EQ(a.p95_wait_hours, b.p95_wait_hours);
  EXPECT_EQ(a.max_wait_hours, b.max_wait_hours);
  EXPECT_EQ(a.mean_bsld, b.mean_bsld);
  EXPECT_EQ(a.p95_bsld, b.p95_bsld);
  EXPECT_EQ(a.mean_dilation, b.mean_dilation);
  EXPECT_EQ(a.frac_jobs_far, b.frac_jobs_far);
  EXPECT_EQ(a.frac_jobs_global, b.frac_jobs_global);
  EXPECT_EQ(a.remote_access_fraction, b.remote_access_fraction);
  EXPECT_EQ(a.global_access_fraction, b.global_access_fraction);
  EXPECT_EQ(a.neighbor_access_fraction, b.neighbor_access_fraction);
  EXPECT_EQ(a.far_gib_hours, b.far_gib_hours);
  EXPECT_EQ(a.jobs_per_hour, b.jobs_per_hour);
  EXPECT_EQ(a.demotions, b.demotions);
  EXPECT_EQ(a.promotions, b.promotions);
  EXPECT_EQ(a.demoted_gib, b.demoted_gib);
  EXPECT_EQ(a.promoted_gib, b.promoted_gib);
  EXPECT_EQ(a.migrations_per_hour, b.migrations_per_hour);
}

}  // namespace dmsched::testing
