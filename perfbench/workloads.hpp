// The benchmark's workloads and the one routine that runs them.
//
// A workload is a seeded library scenario plus the policy and engine knobs
// that put the simulator in one regime. One run of a workload simulates
// `instances` independent scenarios whose seeds derive from the run's seed,
// so a run averages over inputs instead of resting on one draw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/factory.hpp"
#include "layers.hpp"
#include "topology/placement_policy.hpp"
#include "workload/scenarios.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::string scenario;
  dmsched::SchedulerKind scheduler = dmsched::SchedulerKind::kMemAwareEasy;
  double load = 0.0;
  std::size_t jobs = 0;      ///< per instance
  int instances = 1;         ///< scenarios per run, at most kMaxInstances
  /// 0 = eager (make_scenario); otherwise streamed (make_scenario_stream)
  /// with this submit look-ahead window.
  std::size_t stream_lookahead = 0;
  std::optional<dmsched::PlacementStrategy> placement{};
  std::int64_t migrate_interval_min = 0;  ///< 0 = migration off
};

/// Every workload, in report order.
[[nodiscard]] const std::vector<Workload>& workloads();
/// nullptr for an unknown name.
[[nodiscard]] const Workload* find_workload(std::string_view name);

inline constexpr std::uint64_t kMaxInstances = 1024;

/// The scenario seed of instance `k` of a run with seed `seed` (never 0,
/// which the scenario library reads as "published default").
[[nodiscard]] std::uint64_t instance_seed(std::uint64_t seed, int k);

/// A built simulation input. Eager inputs hold the Trace the simulation
/// references; streamed inputs hold the single-use source.
struct Input {
  dmsched::ExperimentConfig config;
  std::optional<dmsched::Scenario> scenario;
  std::optional<dmsched::ScenarioStream> stream;
  std::size_t jobs = 0;  ///< input job count
};

/// Build the scenario with seed `seed` and the engine knobs of `w`.
[[nodiscard]] Input build_input(const Workload& w, std::uint64_t seed);

enum class RunMode {
  kSetupOnly,  ///< build and construct, do not run
  kBare,       ///< no wrapper, no sink: what users run
  kAudit,      ///< bare + EngineOptions::audit_cluster
  kTraced,     ///< every Probe wrapper on, RecordingSink at kLifecycle
};

/// What one simulation run produced, reduced to what the benchmark reports
/// and checks.
struct RunRecord {
  double build_s = 0.0;  ///< scenario build
  double setup_s = 0.0;  ///< build + scheduler + SchedulingSimulation
  double run_s = 0.0;    ///< SchedulingSimulation::run()
  std::size_t input_jobs = 0;
  std::size_t terminal_jobs = 0;  ///< completed + killed + rejected
  double mean_bsld = 0.0;
  double node_utilization = 0.0;
  std::uint64_t migration_moves = 0;
  double migration_moved_gib = 0.0;
  std::uint64_t digest = 0;       ///< SchedulingSimulation::event_digest()
  std::uint64_t fingerprint = 0;  ///< hash of every RunMetrics field
  std::uint64_t fast_passes = 0;  ///< from the scheduler's own stats
  std::uint64_t events = 0;
  std::uint64_t peak_id_window = 0;
  /// kTraced only.
  std::optional<LayerCounts> counts;
  std::optional<std::array<SpanTotals, kLayerCount>> spans;
  std::vector<std::int64_t> pass_ns;
};

/// Build instance `seed` of `w` and run it in `mode`.
[[nodiscard]] RunRecord run_instance(const Workload& w, std::uint64_t seed,
                                     RunMode mode);

}  // namespace perfbench
