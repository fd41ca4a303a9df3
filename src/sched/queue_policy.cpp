#include "sched/queue_policy.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace dmsched {

const char* to_string(QueueOrder order) {
  switch (order) {
    case QueueOrder::kFcfs: return "fcfs";
    case QueueOrder::kShortestFirst: return "sjf";
    case QueueOrder::kLargestFirst: return "largest";
    case QueueOrder::kWfp: return "wfp";
  }
  return "?";
}

void order_queue(std::vector<JobId>& ids, const JobLookup& lookup,
                 QueueOrder order, SimTime now) {
  DMSCHED_ASSERT(lookup != nullptr, "order_queue: null job lookup");
  auto tie = [&](JobId a, JobId b) {
    const Job& ja = lookup(a);
    const Job& jb = lookup(b);
    if (ja.submit != jb.submit) return ja.submit < jb.submit;
    return a < b;
  };
  switch (order) {
    case QueueOrder::kFcfs:
      std::sort(ids.begin(), ids.end(), tie);
      break;
    case QueueOrder::kShortestFirst:
      std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
        if (lookup(a).walltime != lookup(b).walltime) {
          return lookup(a).walltime < lookup(b).walltime;
        }
        return tie(a, b);
      });
      break;
    case QueueOrder::kLargestFirst:
      std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
        if (lookup(a).nodes != lookup(b).nodes) {
          return lookup(a).nodes > lookup(b).nodes;
        }
        return tie(a, b);
      });
      break;
    case QueueOrder::kWfp: {
      auto score = [&](JobId id) {
        const Job& j = lookup(id);
        const double wait = (now - j.submit).seconds();
        const double wall = std::max(j.walltime.seconds(), 1.0);
        const double r = wait / wall;
        return r * r * r * static_cast<double>(j.nodes);
      };
      std::sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
        const double sa = score(a);
        const double sb = score(b);
        if (sa != sb) return sa > sb;
        return tie(a, b);
      });
      break;
    }
  }
}

}  // namespace dmsched
