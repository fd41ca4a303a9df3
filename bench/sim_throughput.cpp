// Simulation-core throughput at large-trace scale.
//
// The paper's tables replay full SWF traces, and related work evaluates
// disaggregation on month-scale production traces, so the event core must
// sustain 10^5–10^6-job replays. This bench measures that several ways:
//
//   end-to-end    — full SchedulingSimulation replays (EASY) of large-replay
//                   prefixes, reported as jobs/sec: what a user of sweeps
//                   and benches actually experiences.
//   scheduler-pass — the incremental-profile rewrite: a faithful bench-local
//                   copy of the pre-incremental EASY pass (full queue walk
//                   every pass, shadow recomputed from scratch) against the
//                   live cached-pass scheduler, both driving complete
//                   simulations of large-replay at load 1.5 — above
//                   saturation, where the queue is deep and scheduler passes
//                   dominate the run. RunMetrics are cross-checked field by
//                   field, so a behavioural drift between the two passes
//                   fails the bench instead of benchmarking different
//                   schedules.
//
//   streaming ingestion — the million-replay scenario pulled through the
//                   TraceSource path at a bounded submission look-ahead vs.
//                   the eager materialize-then-push path, with peak RSS
//                   (VmHWM) and the event queue's peak live id window as the
//                   memory gauges and jobs/sec as the throughput gauge. The
//                   two arms are cross-checked job-for-job and by the
//                   engine's semantic event digest — FATAL on any drift —
//                   and the bench *enforces* the bounded-memory claim: the
//                   eager arm's peak id window must be ≥10× the streaming
//                   arm's. Results go to million_replay.csv (uploaded by
//                   CI, which runs `sim_throughput --smoke` for this
//                   section only at a CI-sized job count).
//
// Results go to the console and sim_throughput.csv; bench/README.md records
// representative numbers.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/assert.hpp"
#include "core/experiment.hpp"
#include "obs/counters.hpp"
#include "obs/perfetto.hpp"
#include "obs/recording_sink.hpp"
#include "workload/scenarios.hpp"

namespace {

using namespace dmsched;
using namespace dmsched::bench;

using Clock = std::chrono::steady_clock;

double sec_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The pre-incremental EASY pass, preserved verbatim: every pass re-walks
/// the whole queue, re-plans every rejected candidate, and recomputes the
/// head's shadow from a fresh sort of the running set — O(queue) plans per
/// pass even when nothing changed. This is the baseline; the live
/// implementation (sched/easy.{hpp,cpp}) caches the converged shadow/extra
/// state against the engine's availability-timeline version and judges only
/// new arrivals.
class LegacyEasyScheduler final : public Scheduler {
 public:
  [[nodiscard]] const char* name() const override { return "easy"; }
  void schedule(SchedContext& ctx) override {
    const auto queue = ctx.queued_jobs();
    std::size_t qi = 0;
    while (qi < queue.size()) {
      auto alloc =
          plan_start(ctx.cluster(), ctx.job(queue[qi]), ctx.placement());
      if (!alloc) break;
      ctx.start_job(queue[qi], *alloc);
      ++qi;
    }
    if (qi >= queue.size()) return;

    const Job& head = ctx.job(queue[qi]);
    auto running = ctx.running_jobs();
    std::sort(running.begin(), running.end(),
              [](const RunningJob& a, const RunningJob& b) {
                if (a.expected_end != b.expected_end) {
                  return a.expected_end < b.expected_end;
                }
                return a.id < b.id;
              });
    std::int32_t avail = ctx.cluster().free_nodes_total();
    SimTime shadow = kTimeInfinity;
    std::int32_t extra = 0;
    if (avail >= head.nodes) {
      shadow = ctx.now();
      extra = avail - head.nodes;
    } else {
      for (const RunningJob& r : running) {
        avail += r.take.node_total();
        if (avail >= head.nodes) {
          shadow = r.expected_end;
          extra = avail - head.nodes;
          break;
        }
      }
    }
    DMSCHED_ASSERT(shadow < kTimeInfinity,
                   "EASY: head job wider than the machine was not rejected");

    for (std::size_t i = qi + 1; i < queue.size(); ++i) {
      const Job& cand = ctx.job(queue[i]);
      auto alloc = plan_start(ctx.cluster(), cand, ctx.placement());
      if (!alloc) continue;
      const bool ends_before_shadow = ctx.now() + cand.walltime <= shadow;
      const bool within_extra = cand.nodes <= extra;
      if (!ends_before_shadow && !within_extra) continue;
      ctx.start_job(queue[i], *alloc);
      if (!ends_before_shadow) extra -= cand.nodes;
    }
  }
};

/// One full EASY simulation of `scenario`, with either the legacy bench
/// copy or the live incremental scheduler.
RunMetrics run_easy(const Scenario& scenario, bool legacy) {
  const ExperimentConfig cfg =
      scenario_experiment(scenario, SchedulerKind::kEasy);
  std::unique_ptr<Scheduler> sched;
  if (legacy) {
    sched = std::make_unique<LegacyEasyScheduler>();
  } else {
    sched = make_scheduler(SchedulerKind::kEasy);
  }
  SchedulingSimulation sim(cfg.cluster, scenario.trace, std::move(sched),
                           cfg.engine);
  return sim.run();
}

/// The pass rewrite must be a pure optimisation: identical decisions,
/// identical metrics, down to the last double.
bool same_schedule(const RunMetrics& a, const RunMetrics& b) {
  return a.makespan == b.makespan && a.completed == b.completed &&
         a.killed == b.killed && a.rejected == b.rejected &&
         a.mean_wait_hours == b.mean_wait_hours &&
         a.p95_wait_hours == b.p95_wait_hours &&
         a.mean_bsld == b.mean_bsld && a.mean_dilation == b.mean_dilation;
}

// --- streaming ingestion (million-replay) -----------------------------------

struct IngestArm {
  RunMetrics metrics;
  std::uint64_t digest = 0;
  std::size_t peak_id_window = 0;
  double elapsed_s = 0.0;
  std::int64_t peak_rss_kib = -1;
};

/// One streamed replay: jobs pulled on demand, bounded look-ahead. Memory
/// per in-flight job is O(live): the event queue's id window and the live
/// job records both stay bounded. (Per-job *outcomes* are still collected —
/// RunMetrics::jobs is O(trace) in both arms — so the enforced criterion is
/// the event-queue id window, and RSS is reported as observed.)
IngestArm run_streaming_arm(std::size_t jobs, std::size_t lookahead) {
  reset_peak_rss();
  ScenarioStream stream = make_scenario_stream("million-replay",
                                               {.jobs = jobs});
  ExperimentConfig cfg = scenario_experiment(stream, SchedulerKind::kEasy);
  cfg.engine.submit_lookahead = lookahead;
  IngestArm a;
  const auto start = Clock::now();
  SchedulingSimulation sim(cfg.cluster, *stream.source,
                           make_scheduler(cfg.scheduler, cfg.mem_options),
                           cfg.engine);
  a.metrics = sim.run();
  a.elapsed_s = sec_since(start);
  a.digest = sim.event_digest();
  a.peak_id_window = sim.peak_event_id_window();
  a.peak_rss_kib = peak_rss_kib();
  return a;
}

/// The historical path: the whole trace materialized, every submission
/// pushed up front (look-ahead 0).
IngestArm run_eager_arm(std::size_t jobs) {
  reset_peak_rss();
  const Scenario scenario = make_scenario("million-replay", {.jobs = jobs});
  const ExperimentConfig cfg =
      scenario_experiment(scenario, SchedulerKind::kEasy);
  IngestArm a;
  const auto start = Clock::now();
  SchedulingSimulation sim(cfg.cluster, scenario.trace,
                           make_scheduler(cfg.scheduler, cfg.mem_options),
                           cfg.engine);
  a.metrics = sim.run();
  a.elapsed_s = sec_since(start);
  a.digest = sim.event_digest();
  a.peak_id_window = sim.peak_event_id_window();
  a.peak_rss_kib = peak_rss_kib();
  return a;
}

/// Cross-check the two arms job-for-job and by digest. Returns false (after
/// printing a diagnostic) on any drift.
bool arms_agree(std::size_t jobs, const IngestArm& stream,
                const IngestArm& eager) {
  if (stream.digest != eager.digest) {
    std::fprintf(stderr,
                 "FATAL: event digest drift at %zu jobs "
                 "(stream %llx vs eager %llx)\n",
                 jobs, static_cast<unsigned long long>(stream.digest),
                 static_cast<unsigned long long>(eager.digest));
    return false;
  }
  if (!same_schedule(stream.metrics, eager.metrics) ||
      stream.metrics.jobs.size() != eager.metrics.jobs.size()) {
    std::fprintf(stderr, "FATAL: metrics drift at %zu jobs\n", jobs);
    return false;
  }
  for (std::size_t i = 0; i < stream.metrics.jobs.size(); ++i) {
    const JobOutcome& s = stream.metrics.jobs[i];
    const JobOutcome& e = eager.metrics.jobs[i];
    if (s.fate != e.fate || s.submit != e.submit || s.start != e.start ||
        s.end != e.end || s.dilation != e.dilation) {
      std::fprintf(stderr, "FATAL: outcome drift at %zu jobs (job %zu)\n",
                   jobs, i);
      return false;
    }
  }
  return true;
}

std::string rss_mib(std::int64_t kib) {
  return kib < 0 ? std::string("n/a") : f1(static_cast<double>(kib) / 1024.0);
}

// --- tracing overhead -------------------------------------------------------

/// RunMetrics must be *byte-identical* with a sink attached: same outcomes,
/// same order, down to the last double. Anything else means the observer
/// perturbed the run.
bool identical_metrics(const RunMetrics& a, const RunMetrics& b) {
  if (!same_schedule(a, b) || a.jobs.size() != b.jobs.size()) return false;
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const JobOutcome& x = a.jobs[i];
    const JobOutcome& y = b.jobs[i];
    if (x.fate != y.fate || x.submit != y.submit || x.start != y.start ||
        x.end != y.end || x.dilation != y.dilation) {
      return false;
    }
  }
  return true;
}

struct TracedArm {
  RunMetrics metrics;
  std::uint64_t digest = 0;
  double elapsed_s = 0.0;
};

/// One EASY replay of `scenario` with the given observers attached (either
/// may be null — both null is the untraced baseline).
TracedArm run_traced(const Scenario& scenario, obs::TraceSink* sink,
                     obs::CounterRegistry* counters,
                     obs::TraceDetail detail = obs::TraceDetail::kFull) {
  ExperimentConfig cfg = scenario_experiment(scenario, SchedulerKind::kEasy);
  cfg.engine.sink = sink;
  cfg.engine.trace_detail = detail;
  cfg.engine.counters = counters;
  TracedArm a;
  const auto start = Clock::now();
  SchedulingSimulation sim(cfg.cluster, scenario.trace,
                           make_scheduler(cfg.scheduler, cfg.mem_options),
                           cfg.engine);
  a.metrics = sim.run();
  a.elapsed_s = sec_since(start);
  a.digest = sim.event_digest();
  return a;
}

/// Median of a non-empty sample.
double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Tracing-overhead section: the same large-replay prefix untraced (the
/// disabled arm — one never-taken branch per emission site, 0% by
/// construction), then with sinks attached at each detail level, then with
/// the PerfettoTraceWriter streaming JSON to disk. Enforced:
///  - RunMetrics and the semantic event digest are identical across every
///    arm — tracing observes, never perturbs;
///  - an attached in-memory sink at lifecycle detail costs <5% over the
///    untraced baseline. The arms run interleaved: every rep runs the
///    untraced arm and then the lifecycle arm back to back (ABAB across
///    reps), and the gate is the median of the per-rep ratios, so host
///    speed drift between reps cancels within each pair. The job count
///    keeps one arm well above 100 ms, where timer and scheduling noise are
///    small against the run. Lifecycle is the budgeted always-on level; the
///    deeper levels are diagnostics, priced in the table over the first
///    kDiagReps reps only: kFull reads the wall clock twice per pass.
/// The JSON writer is reported, not enforced — its cost is dominated by
/// serialization and disk I/O, which CI machines vary on wildly.
bool run_tracing_overhead_section(std::size_t jobs) {
  constexpr int kGateReps = 31;
  constexpr int kDiagReps = 5;
  const Scenario scenario = make_scenario("large-replay", {.jobs = jobs});

  obs::RecordingSink recorder;
  obs::CounterRegistry registry;
  const std::string trace_path = "tracing_overhead_sample.json";

  // A do-nothing sink (every TraceSink callback defaults to empty):
  // isolates what the *engine* adds at full detail — argument marshalling,
  // virtual dispatch, per-pass clock reads and gauge sampling — from what a
  // particular sink does with the data.
  obs::TraceSink null_sink;

  // Per arm: elapsed time and elapsed / the same rep's untraced time.
  enum Arm { kNone, kLife, kNull, kSched, kFull, kJson, kArms };
  std::vector<double> elapsed[kArms];
  std::vector<double> ratio[kArms];
  std::size_t recorded = 0;  // events the full-detail arm recorded
  std::size_t json_events = 0;
  for (int rep = 0; rep < kGateReps; ++rep) {
    const bool diag = rep < kDiagReps;
    TracedArm arms[kArms];
    arms[kNone] = run_traced(scenario, nullptr, nullptr);
    recorder.clear();
    arms[kLife] =
        run_traced(scenario, &recorder, nullptr, obs::TraceDetail::kLifecycle);
    if (diag) {
      arms[kNull] = run_traced(scenario, &null_sink, nullptr);
      recorder.clear();
      arms[kSched] =
          run_traced(scenario, &recorder, nullptr, obs::TraceDetail::kSched);
      recorder.clear();
      arms[kFull] = run_traced(scenario, &recorder, &registry);
      recorded = recorder.queued.size() + recorder.rejected.size() +
                 recorder.started.size() + recorder.finished.size() +
                 recorder.passes.size() + recorder.gauges.size();
      obs::PerfettoTraceWriter writer(trace_path);
      arms[kJson] = run_traced(scenario, &writer, nullptr);
      writer.close();
      json_events = writer.events_written();
    }

    for (int a = 0; a < (diag ? kArms : kNull); ++a) {
      if (!identical_metrics(arms[kNone].metrics, arms[a].metrics) ||
          arms[kNone].digest != arms[a].digest) {
        std::fprintf(stderr,
                     "FATAL: tracing perturbed the run at %zu jobs "
                     "(arm %d: digest %llx, untraced %llx)\n",
                     jobs, a, static_cast<unsigned long long>(arms[a].digest),
                     static_cast<unsigned long long>(arms[kNone].digest));
        return false;
      }
      elapsed[a].push_back(arms[a].elapsed_s);
      ratio[a].push_back(arms[a].elapsed_s / arms[kNone].elapsed_s);
    }
  }

  const char* const labels[kArms] = {
      "no sink", "lifecycle (enforced <5%)", "null sink (full)",
      "+ pass spans (sched)", "+ gauges + counters (full)",
      "perfetto json writer (full)"};
  const char* const csv_names[kArms] = {"none",  "lifecycle", "null-full",
                                        "sched", "full",      "perfetto"};
  const std::int64_t events[kArms] = {
      -1, -1, -1, -1, static_cast<std::int64_t>(recorded),
      static_cast<std::int64_t>(json_events)};

  ConsoleTable table(
      "tracing overhead — large-replay (EASY, recording sink; median over "
      "reps, overhead = median of per-rep ratios to the untraced arm)");
  table.columns({"arm", "jobs", "elapsed (s)", "jobs/s", "overhead",
                 "events"});
  auto csv = csv_for("tracing_overhead");
  csv.header({"arm", "jobs", "elapsed_s", "jobs_per_s", "overhead_pct",
              "events"});
  double overhead_pct[kArms];
  for (int a = 0; a < kArms; ++a) {
    const double t = median_of(elapsed[a]);
    overhead_pct[a] = 100.0 * (median_of(ratio[a]) - 1.0);
    const double rate = static_cast<double>(jobs) / t;
    table.row({labels[a], num(jobs), f3(t), f1(rate),
               a == kNone ? "-" : strformat("%+.1f%%", overhead_pct[a]),
               events[a] < 0 ? "-"
                             : num(static_cast<std::size_t>(events[a]))});
    csv.add(csv_names[a]).add(jobs).add(t).add(rate).add(overhead_pct[a])
        .add(events[a]);
    csv.end_row();
  }
  table.print();

  if (overhead_pct[kLife] > 5.0) {
    std::fprintf(stderr,
                 "FATAL: attached-sink overhead %.1f%% at lifecycle detail "
                 "exceeds the 5%% budget (median of %d paired ratios; "
                 "untraced median %.3fs at %zu jobs)\n",
                 overhead_pct[kLife], kGateReps, median_of(elapsed[kNone]),
                 jobs);
    return false;
  }
  return true;
}

/// Run the streaming-ingestion section. Returns false on a cross-check or
/// bounded-memory-criterion failure.
bool run_streaming_section(const std::vector<std::size_t>& sizes) {
  constexpr std::size_t kLookahead = 256;
  ConsoleTable table(
      "streaming ingestion — million-replay, pull-based source "
      "(lookahead 256) vs. eager materialize-and-push");
  table.columns({"jobs", "stream (s)", "eager (s)", "stream jobs/s",
                 "eager jobs/s", "stream idwin", "eager idwin", "win ratio",
                 "stream RSS (MiB)", "eager RSS (MiB)"});
  auto csv = csv_for("million_replay");
  csv.header({"arm", "jobs", "lookahead", "elapsed_s", "jobs_per_s",
              "peak_event_id_window", "peak_rss_kib", "id_window_ratio"});

  for (const std::size_t jobs : sizes) {
    // Streaming first: it runs against a fresh watermark, so its RSS figure
    // cannot inherit the eager arm's materialized trace.
    const IngestArm stream = run_streaming_arm(jobs, kLookahead);
    const IngestArm eager = run_eager_arm(jobs);
    if (!arms_agree(jobs, stream, eager)) return false;
    if (stream.peak_id_window == 0 ||
        eager.peak_id_window / stream.peak_id_window < 10) {
      std::fprintf(stderr,
                   "FATAL: bounded-memory criterion failed at %zu jobs: "
                   "eager peak id window %zu is not >= 10x streaming "
                   "peak %zu\n",
                   jobs, eager.peak_id_window, stream.peak_id_window);
      return false;
    }
    const double ratio = static_cast<double>(eager.peak_id_window) /
                         static_cast<double>(stream.peak_id_window);
    table.row({num(jobs), f3(stream.elapsed_s), f3(eager.elapsed_s),
               f1(static_cast<double>(jobs) / stream.elapsed_s),
               f1(static_cast<double>(jobs) / eager.elapsed_s),
               num(stream.peak_id_window), num(eager.peak_id_window),
               strformat("%.0fx", ratio), rss_mib(stream.peak_rss_kib),
               rss_mib(eager.peak_rss_kib)});
    csv.add("stream")
        .add(jobs)
        .add(kLookahead)
        .add(stream.elapsed_s)
        .add(static_cast<double>(jobs) / stream.elapsed_s)
        .add(stream.peak_id_window)
        .add(stream.peak_rss_kib)
        .add(ratio);
    csv.end_row();
    csv.add("eager")
        .add(jobs)
        .add(std::size_t{0})
        .add(eager.elapsed_s)
        .add(static_cast<double>(jobs) / eager.elapsed_s)
        .add(eager.peak_id_window)
        .add(eager.peak_rss_kib)
        .add(ratio);
    csv.end_row();
  }
  table.print();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // --smoke: CI mode — only the streaming-ingestion section, at a job count
  // sized for a CI runner. The full default run covers all sections and
  // takes the streaming comparison to a million jobs.
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }

  // Streaming ingestion runs first so its RSS watermarks are clean.
  const std::vector<std::size_t> ingest_sizes =
      smoke ? std::vector<std::size_t>{20000}
            : std::vector<std::size_t>{100000, 1000000};
  if (!run_streaming_section(ingest_sizes)) return 1;

  // Tracing overhead runs in --smoke too: the <5% attached-sink budget and
  // the byte-identical-metrics cross-check are CI-enforced claims. One size
  // for both modes: the untraced arm takes ~0.2 s there (4-vCPU Xeon VM),
  // so the ratio measures the sink rather than timer noise.
  if (!run_tracing_overhead_section(75000)) return 1;
  if (smoke) return 0;

  const std::size_t kSizes[] = {1000, 10000, 100000};

  auto csv = csv_for("sim_throughput");
  // One schema for both sections: end-to-end rows leave legacy_s and
  // speedup at -1 (there is no legacy arm for a full simulation).
  csv.header({"workload", "jobs", "legacy_s", "elapsed_s", "speedup",
              "jobs_per_s"});

  // End-to-end: full EASY replays of large-replay prefixes on the live core
  // (scheduler + cluster + metrics included), the number sweep users feel.
  ConsoleTable e2e("end-to-end replay (EASY on large-replay prefixes)");
  e2e.columns({"jobs", "elapsed (s)", "jobs/s", "makespan (h)", "completed"});
  for (const std::size_t jobs : kSizes) {
    const Scenario scenario = make_scenario("large-replay", {.jobs = jobs});
    const auto start = Clock::now();
    const RunMetrics m = run_scenario(scenario, SchedulerKind::kEasy);
    const double elapsed = sec_since(start);
    e2e.row({num(jobs), f3(elapsed),
             f1(static_cast<double>(jobs) / elapsed), f1(m.makespan.hours()),
             num(m.completed)});
    csv.add("end-to-end-easy")
        .add(jobs)
        .add(std::int64_t{-1})
        .add(elapsed)
        .add(std::int64_t{-1})
        .add(static_cast<double>(jobs) / elapsed);
    csv.end_row();
  }
  e2e.print();

  // Scheduler-pass: legacy full-queue-walk EASY vs. the live incremental
  // scheduler, complete simulations at load 1.5 — above saturation, so the
  // queue stays deep and pass cost dominates. Metrics must agree exactly;
  // the rewrite is only allowed to be faster, never different.
  ConsoleTable sched(
      "scheduler passes — legacy full-walk EASY vs. incremental "
      "(large-replay, load 1.5)");
  sched.columns({"jobs", "legacy (s)", "incremental (s)", "legacy jobs/s",
                 "incremental jobs/s", "speedup"});
  for (const std::size_t jobs : {std::size_t{1000}, std::size_t{3000},
                                 std::size_t{10000}}) {
    const Scenario scenario =
        make_scenario("large-replay", {.jobs = jobs, .load = 1.5});
    const auto lstart = Clock::now();
    const RunMetrics lm = run_easy(scenario, /*legacy=*/true);
    const double legacy_s = sec_since(lstart);
    const auto istart = Clock::now();
    const RunMetrics im = run_easy(scenario, /*legacy=*/false);
    const double incr_s = sec_since(istart);
    if (!same_schedule(lm, im)) {
      std::fprintf(stderr,
                   "FATAL: schedule drift at %zu jobs (legacy vs. "
                   "incremental): makespan %lld/%lld usec, completed "
                   "%zu/%zu, mean wait %.9f/%.9f h\n",
                   jobs, static_cast<long long>(lm.makespan.usec()),
                   static_cast<long long>(im.makespan.usec()), lm.completed,
                   im.completed, lm.mean_wait_hours, im.mean_wait_hours);
      return 1;
    }
    const double speedup = legacy_s / incr_s;
    sched.row({num(jobs), f3(legacy_s), f3(incr_s),
               f1(static_cast<double>(jobs) / legacy_s),
               f1(static_cast<double>(jobs) / incr_s),
               strformat("%.1fx", speedup)});
    csv.add("sched-pass-easy")
        .add(jobs)
        .add(legacy_s)
        .add(incr_s)
        .add(speedup)
        .add(static_cast<double>(jobs) / incr_s);
    csv.end_row();
  }
  // The incremental pass alone at the scale the legacy walk cannot reach in
  // reasonable time.
  {
    const std::size_t jobs = 100000;
    const Scenario scenario =
        make_scenario("large-replay", {.jobs = jobs, .load = 1.5});
    const auto start = Clock::now();
    const RunMetrics m = run_easy(scenario, /*legacy=*/false);
    const double elapsed = sec_since(start);
    sched.row({num(jobs), "-", f3(elapsed), "-",
               f1(static_cast<double>(jobs) / elapsed), "-"});
    csv.add("sched-pass-easy-incremental-only")
        .add(jobs)
        .add(std::int64_t{-1})
        .add(elapsed)
        .add(std::int64_t{-1})
        .add(static_cast<double>(jobs) / elapsed);
    csv.end_row();
    (void)m;
  }
  sched.print();
  return 0;
}
