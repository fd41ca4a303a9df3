// The benchmark's wrappers must be invisible to the simulation. For every
// workload instance at the default and the held-out seed, the wrapped run
// (every Probe wrapper plus the recording sink) and the bare run must agree
// on the event digest, on every RunMetrics field, and on the scheduler's
// fast-pass count. The last is the one a careless forwarding SchedContext
// breaks without any other symptom, so a negative control shows the check
// catches a context that drops the defaulted virtuals.
//
// Run: passivity_test (exit 0 = pass), or through ctest in the build tree.
#include <cstdio>
#include <memory>
#include <utility>

#include "workloads.hpp"

namespace {

using namespace dmsched;
using namespace perfbench;

constexpr std::uint64_t kDefaultSeed = 7;
constexpr std::uint64_t kHeldOutSeed = 11;

int g_failures = 0;

void expect(bool ok, const char* what, const Workload& w, std::uint64_t seed,
            int k) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "FAIL %s: %s seed %llu instance %d\n", what,
               w.name.c_str(), static_cast<unsigned long long>(seed), k);
}

/// Forwards only the pure virtuals, so the defaulted incremental-pass hooks
/// fall back to their "no fast path" answers.
class LossyContext final : public SchedContext {
 public:
  explicit LossyContext(SchedContext& inner) : inner_(inner) {}
  [[nodiscard]] SimTime now() const override { return inner_.now(); }
  [[nodiscard]] const Cluster& cluster() const override {
    return inner_.cluster();
  }
  [[nodiscard]] const Job& job(JobId id) const override {
    return inner_.job(id);
  }
  [[nodiscard]] std::vector<JobId> queued_jobs() const override {
    return inner_.queued_jobs();
  }
  [[nodiscard]] std::vector<RunningJob> running_jobs() const override {
    return inner_.running_jobs();
  }
  [[nodiscard]] PlacementPolicy placement() const override {
    return inner_.placement();
  }
  [[nodiscard]] const SlowdownModel& slowdown() const override {
    return inner_.slowdown();
  }
  [[nodiscard]] const Topology& topology() const override {
    return inner_.topology();
  }
  void start_job(JobId id, const Allocation& alloc) override {
    inner_.start_job(id, alloc);
  }

 private:
  SchedContext& inner_;
};

class LossyScheduler final : public Scheduler {
 public:
  explicit LossyScheduler(std::unique_ptr<Scheduler> inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] const SchedulerStats* stats() const override {
    return inner_->stats();
  }
  void schedule(SchedContext& ctx) override {
    LossyContext lossy(ctx);
    inner_->schedule(lossy);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
};

std::uint64_t lossy_fast_passes(const Workload& w, std::uint64_t seed) {
  Input in = build_input(w, seed);
  auto scheduler = std::make_unique<LossyScheduler>(
      make_scheduler(in.config.scheduler, in.config.mem_options));
  const Scheduler* policy = scheduler.get();
  SchedulingSimulation sim(in.config.cluster, in.scenario->trace,
                           std::move(scheduler), in.config.engine);
  (void)sim.run();
  return policy->stats()->fast_passes;
}

}  // namespace

int main() {
  for (const Workload& w : workloads()) {
    for (const std::uint64_t seed : {kDefaultSeed, kHeldOutSeed}) {
      for (int k = 0; k < w.instances; ++k) {
        const std::uint64_t s = instance_seed(seed, k);
        const RunRecord bare = run_instance(w, s, RunMode::kBare);
        const RunRecord wrapped = run_instance(w, s, RunMode::kTraced);
        expect(bare.digest == wrapped.digest, "event digest", w, seed, k);
        expect(bare.fingerprint == wrapped.fingerprint, "RunMetrics", w, seed,
               k);
        expect(bare.fast_passes == wrapped.fast_passes, "fast passes", w,
               seed, k);
        expect(wrapped.counts->fast_passes == bare.fast_passes,
               "wrapped fast-pass count", w, seed, k);
      }
      std::printf("ok %s seed %llu (%d instances)\n", w.name.c_str(),
                  static_cast<unsigned long long>(seed), w.instances);
    }
  }

  // Negative control: the fast-pass comparison above must be able to fail.
  const Workload& w = *find_workload("backlog-mem-easy");
  const std::uint64_t s = instance_seed(kDefaultSeed, 0);
  const RunRecord bare = run_instance(w, s, RunMode::kBare);
  expect(bare.fast_passes > 0, "mem-easy takes fast passes", w, kDefaultSeed,
         0);
  expect(lossy_fast_passes(w, s) != bare.fast_passes,
         "a lossy context changes the fast-pass count", w, kDefaultSeed, 0);

  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("passivity: all checks passed\n");
  return 0;
}
