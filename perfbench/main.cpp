// simbench: one workload of the simulator benchmark, end to end or traced.
//
//   simbench --workload backlog-mem-easy --seed 7 --seconds 20 --trace 0
//
// --trace 0 measures what a user of the simulator sees, with every wrapper
// off: jobs simulated per host second, set-up time, peak memory, and two
// deterministic outcome figures. The two timings are scaled to a quiet
// host's speed by a reference workload timed around every simulation
// (reference.hpp); the unscaled throughput and the host speed are printed
// beside them. --trace 1 runs the same inputs bare and wrapped (layers.hpp)
// in alternation and reports where run() spent its time, layer by layer,
// plus the clock-free work counts.
//
// Every run is checked: every input job reaches a terminal state; every run
// of an instance reproduces the first one's event digest, metrics
// fingerprint, fast-pass count and work counts; and one extra untimed run
// audits the cluster ledger after every completion. A run that fails a
// check counts as failed. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "reference.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using dmsched::SampleStats;
using Clock = std::chrono::steady_clock;

constexpr int kMinRounds = 2;
constexpr int kMinTracedCycles = 2;
constexpr std::size_t kMinSetupSamples = 9;

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// The per-instance references every later run is compared against, and
/// the tally of runs attempted and failed.
class Checks {
 public:
  explicit Checks(int instances) : refs_(static_cast<std::size_t>(instances)) {}

  void check(int k, const RunRecord& r, const char* what) {
    ++attempted_;
    std::string why;
    auto fail = [&](const std::string& reason) {
      if (why.empty()) why = reason;
    };
    if (r.terminal_jobs != r.input_jobs) {
      fail("completed+killed+rejected=" + std::to_string(r.terminal_jobs) +
           " but input has " + std::to_string(r.input_jobs) + " jobs");
    }
    Ref& ref = refs_[static_cast<std::size_t>(k)];
    if (!ref.set) {
      ref = {true, r.digest, r.fingerprint, r.fast_passes, r.events,
             r.peak_id_window, r.migration_moves, std::nullopt};
    } else {
      if (r.digest != ref.digest) fail("event digest differs");
      if (r.fingerprint != ref.fingerprint) fail("RunMetrics differ");
      if (r.fast_passes != ref.fast_passes) fail("fast-pass count differs");
      if (r.events != ref.events || r.peak_id_window != ref.peak_id_window ||
          r.migration_moves != ref.migration_moves) {
        fail("sim/ or migration/ counts differ");
      }
    }
    if (r.counts) {
      if (r.counts->fast_passes != r.fast_passes) {
        fail("wrapped fast-pass count differs from the policy's own");
      }
      if (!ref.counts) {
        ref.counts = r.counts;
      } else if (*ref.counts != *r.counts) {
        fail("work counts differ between traced runs");
      }
    }
    if (!why.empty()) {
      ++failed_;
      std::fprintf(stderr, "check failed: instance %d, %s run: %s\n", k, what,
                   why.c_str());
    }
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  struct Ref {
    bool set = false;
    std::uint64_t digest = 0;
    std::uint64_t fingerprint = 0;
    std::uint64_t fast_passes = 0;
    std::uint64_t events = 0;
    std::uint64_t peak_id_window = 0;
    std::uint64_t migration_moves = 0;
    std::optional<LayerCounts> counts;
  };
  std::vector<Ref> refs_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Sums of one pass over every instance of a workload.
struct Cycle {
  double jobs = 0.0;
  double setup_s = 0.0;
  double build_s = 0.0;
  double run_s = 0.0;
};

class Bench {
 public:
  Bench(const Workload& w, std::uint64_t seed)
      : w_(w), seed_(seed), checks_(w.instances) {}

  std::vector<Metric> end_to_end(double seconds) {
    // Every simulation is bracketed by reference chunks, and its set-up and
    // run() times are scaled by the host speed they measured. The reference
    // allocates first, so its share of peak memory is the same every run.
    HostReference reference;

    // The ledger audit is O(nodes) per completion, so it runs once, untimed.
    checks_.check(0, run(0, RunMode::kAudit), "audit");

    double before_s = reference.chunk_s();
    SampleStats speeds;
    auto scaled_run = [&](int k, RunMode mode) {
      RunRecord r = run(k, mode);
      const double after_s = reference.chunk_s();
      const double speed = HostReference::speed(before_s, after_s);
      before_s = after_s;
      speeds.add(speed);
      return std::pair{r, speed};
    };

    // Rounds over every instance until --seconds have passed. Each
    // instance's run time is the median over its rounds, which damps a burst
    // of host noise during one round.
    const auto n = static_cast<std::size_t>(w_.instances);
    std::vector<SampleStats> run_s(n);
    std::vector<SampleStats> unscaled_run_s(n);
    SampleStats setup_s;
    double jobs = 0.0;
    double bsld = 0.0;
    double util = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (int round = 0; round < kMinRounds || elapsed(t0) < seconds;
         ++round) {
      double setup = 0.0;
      jobs = bsld = util = 0.0;
      for (int k = 0; k < w_.instances; ++k) {
        const auto [r, speed] = scaled_run(k, RunMode::kBare);
        checks_.check(k, r, "timed");
        jobs += static_cast<double>(r.terminal_jobs);
        setup += r.setup_s * speed;
        run_s[static_cast<std::size_t>(k)].add(r.run_s * speed);
        unscaled_run_s[static_cast<std::size_t>(k)].add(r.run_s);
        bsld += r.mean_bsld / w_.instances;
        util += r.node_utilization / w_.instances;
      }
      setup_s.add(setup);
    }
    while (setup_s.count() < kMinSetupSamples) {
      double setup = 0.0;
      for (int k = 0; k < w_.instances; ++k) {
        const auto [r, speed] = scaled_run(k, RunMode::kSetupOnly);
        setup += r.setup_s * speed;
      }
      setup_s.add(setup);
    }
    double median_run_s = 0.0;
    double unscaled_median_run_s = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      median_run_s += run_s[k].median();
      unscaled_median_run_s += unscaled_run_s[k].median();
    }
    std::printf("host speed %.3f (median of %zu, 1 = quiet host); "
                "unscaled jobs_per_s %.6g\n",
                speeds.median(), speeds.count(), jobs / unscaled_median_run_s);
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return {
        {"jobs_per_s", jobs / median_run_s, "jobs/s"},
        {"setup_s", setup_s.median(), "s"},
        {"peak_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB"},
        {"sim_bsld_mean", bsld, "ratio"},
        {"sim_node_util", util, "fraction"},
    };
  }

  std::vector<Metric> per_layer(double seconds) {
    SampleStats bare_s;
    SampleStats traced_s;
    SampleStats build_s;
    std::array<SampleStats, kLayerCount> total_s;
    std::array<SampleStats, kLayerCount> self_s;
    SampleStats pass_us;
    LayerCounts counts;
    std::uint64_t events = 0;
    std::uint64_t peak_window = 0;
    std::uint64_t moves = 0;
    double moved_gib = 0.0;

    auto bare_cycle = [&] {
      Cycle c;
      for (int k = 0; k < w_.instances; ++k) {
        const RunRecord r = run(k, RunMode::kBare);
        checks_.check(k, r, "bare");
        add(c, r);
      }
      bare_s.add(c.run_s);
      build_s.add(c.build_s);
    };
    auto traced_cycle = [&] {
      Cycle c;
      std::array<double, kLayerCount> total{};
      std::array<double, kLayerCount> self{};
      const bool first = traced_s.count() == 0;
      for (int k = 0; k < w_.instances; ++k) {
        const RunRecord r = run(k, RunMode::kTraced);
        checks_.check(k, r, "traced");
        add(c, r);
        for (std::size_t i = 0; i < kLayerCount; ++i) {
          total[i] += ns_to_s((*r.spans)[i].total_ns);
          self[i] += ns_to_s((*r.spans)[i].self_ns);
        }
        for (const std::int64_t ns : r.pass_ns) {
          pass_us.add(static_cast<double>(ns) * 1e-3);
        }
        if (first) {
          accumulate(counts, *r.counts);
          events += r.events;
          peak_window = std::max(peak_window, r.peak_id_window);
          moves += r.migration_moves;
          moved_gib += r.migration_moved_gib;
        }
      }
      traced_s.add(c.run_s);
      build_s.add(c.build_s);
      for (std::size_t i = 0; i < kLayerCount; ++i) {
        total_s[i].add(total[i]);
        self_s[i].add(self[i]);
      }
    };

    // Alternate which arm runs first so drift in the host's speed lands on
    // both arms of the overhead comparison.
    const Clock::time_point t0 = Clock::now();
    for (int cycle = 0; cycle < kMinTracedCycles || elapsed(t0) < seconds;
         ++cycle) {
      if (cycle % 2 == 0) {
        bare_cycle();
        traced_cycle();
      } else {
        traced_cycle();
        bare_cycle();
      }
    }

    auto layer_total = [&](Layer l) {
      return total_s[static_cast<std::size_t>(l)].median();
    };
    auto layer_self = [&](Layer l) {
      return self_s[static_cast<std::size_t>(l)].median();
    };
    const double bare = bare_s.median();
    const double traced = traced_s.median();
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    return {
        {"sched.passes", count(counts.passes), "count"},
        {"sched.fast_passes", count(counts.fast_passes), "count"},
        {"sched.jobs_examined", count(counts.jobs_examined), "count"},
        {"sched.plans_attempted", count(counts.plans_attempted), "count"},
        {"sched.starts", count(counts.starts), "count"},
        {"sched.start_yield",
         counts.plans_attempted == 0
             ? 0.0
             : count(counts.starts) / count(counts.plans_attempted),
         "ratio"},
        {"sched.pass_s", layer_total(Layer::kPass), "s"},
        {"sched.self_s", layer_self(Layer::kPass), "s"},
        {"sched.pass_p50_us", pass_us.percentile(50.0), "us"},
        {"sched.pass_p99_us", pass_us.percentile(99.0), "us"},
        {"core.queue_calls", count(counts.queue_calls), "count"},
        {"core.queue_entries", count(counts.queue_entries), "count"},
        {"core.queue_s", layer_total(Layer::kQueue), "s"},
        {"core.running_entries", count(counts.running_entries), "count"},
        {"core.running_s", layer_total(Layer::kRunning), "s"},
        {"core.start_s", layer_total(Layer::kStart), "s"},
        {"core.self_s", layer_self(Layer::kRun), "s"},
        {"sim.events", count(events), "count"},
        {"sim.peak_id_window", count(peak_window), "count"},
        {"workload.pulls", count(counts.pulls), "count"},
        {"workload.pull_s", layer_total(Layer::kPull), "s"},
        {"workload.build_s", build_s.median(), "s"},
        {"migration.moves", count(moves), "count"},
        {"migration.moved_gib", moved_gib, "GiB"},
        {"obs.sink_calls", count(counts.sink_calls), "count"},
        {"obs.sink_s", layer_total(Layer::kSink), "s"},
        {"trace.run_s", traced, "s"},
        {"trace.overhead_pct", 100.0 * (traced - bare) / bare, "%"},
    };
  }

  [[nodiscard]] const Checks& checks() const { return checks_; }

 private:
  RunRecord run(int k, RunMode mode) {
    return run_instance(w_, instance_seed(seed_, k), mode);
  }
  static void add(Cycle& c, const RunRecord& r) {
    c.jobs += static_cast<double>(r.terminal_jobs);
    c.setup_s += r.setup_s;
    c.build_s += r.build_s;
    c.run_s += r.run_s;
  }
  static void accumulate(LayerCounts& sum, const LayerCounts& c) {
    sum.passes += c.passes;
    sum.fast_passes += c.fast_passes;
    sum.jobs_examined += c.jobs_examined;
    sum.plans_attempted += c.plans_attempted;
    sum.starts += c.starts;
    sum.queue_calls += c.queue_calls;
    sum.queue_entries += c.queue_entries;
    sum.running_entries += c.running_entries;
    sum.pulls += c.pulls;
    sum.sink_calls += c.sink_calls;
  }
  static double elapsed(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  }

  const Workload& w_;
  std::uint64_t seed_;
  Checks checks_;
};

/// Where the traced run() went. core.start_s includes the sink calls that
/// start_job triggers, so the shares can add up to slightly over 100%.
void print_shares(const std::vector<Metric>& metrics) {
  auto get = [&](const std::string& name) {
    for (const Metric& m : metrics) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  };
  const double run = get("trace.run_s");
  if (run <= 0.0) return;
  std::printf("share of traced run():");
  for (const char* name :
       {"sched.self_s", "core.queue_s", "core.running_s", "core.start_s",
        "core.self_s", "workload.pull_s", "obs.sink_s"}) {
    std::printf(" %s %.1f%%", name, 100.0 * get(name) / run);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  dmsched::Cli cli("simbench", "one workload of the simulator benchmark");
  cli.add_string("workload", "", "workload name");
  cli.add_int("seed", 7, "workload seed");
  cli.add_double("seconds", 10.0, "measurement time budget");
  cli.add_int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics");
  if (!cli.parse(argc, argv)) return 2;
  const Workload* w = find_workload(cli.get_string("workload"));
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; known:",
                 cli.get_string("workload").c_str());
    for (const Workload& known : workloads()) {
      std::fprintf(stderr, " %s", known.name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const std::int64_t seed = cli.get_int("seed");
  const std::int64_t trace = cli.get_int("trace");
  const double seconds = cli.get_double("seconds");
  if (seed < 0 || (trace != 0 && trace != 1) || !(seconds > 0.0)) {
    std::fprintf(stderr, "need --seed >= 0, --trace 0|1, --seconds > 0\n");
    return 2;
  }

  try {
    Bench bench(*w, static_cast<std::uint64_t>(seed));
    const std::vector<Metric> metrics =
        trace == 0 ? bench.end_to_end(seconds) : bench.per_layer(seconds);
    for (const Metric& m : metrics) {
      std::printf("%-24s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (trace == 1) print_shares(metrics);

    const bool correct = bench.checks().failed() == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(bench.checks().attempted()),
                static_cast<unsigned long long>(bench.checks().failed()));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                  metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simbench: %s\n", e.what());
    return 2;
  }
}
