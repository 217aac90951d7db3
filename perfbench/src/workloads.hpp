// The benchmark's two workloads. Each builds its structures from the
// seed, times its set-up, runs an untimed warm-up pass, then repeats
// identical timed passes until the time budget is spent, checking every
// answer against the sequential oracle outside the timed region.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: end-to-end metrics. true: a traced run that reports the
  /// per-layer metrics instead.
  bool trace = false;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< queries attempted, all passes
  std::uint64_t failed = 0;     ///< attempted queries not served correctly
  unsigned pool_threads = 0;
  MetricSet metrics;               ///< what the final JSON line reports
  std::vector<std::string> notes;  ///< human-readable lines printed before it
};

/// Runs one workload. Throws std::invalid_argument on an unknown name.
RunResult run_workload(const RunOptions& opt);

}  // namespace perfbench
