// A fixed reference workload that measures how fast the host runs at the
// moment, so simulator timings can be scaled to a steady host speed.
//
// On a shared host, the speed of branchy, cache-missing code such as the
// simulator drifts by tens of percent over seconds while other tenants come
// and go; a run's median cannot average that out when a slow phase lasts as
// long as the run. The reference is a small discrete-event loop of the same
// character (a binary-heap event queue plus scattered table reads and
// writes over a few MiB) that lives in the benchmark, so no change to the
// simulator changes it. Timing a chunk of it right before and right after a
// simulation measures the host's speed over that simulation.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

class HostReference {
 public:
  HostReference();

  /// Run one fixed chunk of the reference work and return its host seconds.
  double chunk_s();

  /// How fast the host runs now relative to a quiet host, from the durations
  /// of the chunks run before and after the timed work: 1 on a quiet host,
  /// below 1 when the host is slow.
  [[nodiscard]] static double speed(double before_s, double after_s);

 private:
  std::uint64_t next();

  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap_;
  std::vector<std::uint64_t> table_;
  std::vector<std::uint32_t> cells_;
  std::uint64_t rng_ = 88172645463325252ULL;
  std::uint64_t acc_ = 0;
};

}  // namespace perfbench
