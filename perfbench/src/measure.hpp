// Measurement helpers of the host-time benchmark: exact percentiles over raw
// samples, process CPU and peak-RSS readings, the host-drift reference loop,
// and the metric list printed as the run's final JSON line.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile of raw samples: the smallest sample x such that
/// at least ceil(q * n) samples are <= x. Always returns one of the samples
/// (no interpolation, no bucketing). q must be in (0, 1]; `values` must be
/// non-empty.
double percentile(std::vector<double> values, double q);

/// Raw per-request samples; percentiles are computed from all of them.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t count() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double sum() const;
  double pct(double q) const { return percentile(v_, q); }
  double median() const { return percentile(v_, 0.5); }
  const std::vector<double>& values() const { return v_; }

 private:
  std::vector<double> v_;
};

/// Process CPU time (user + system) in seconds, all threads.
double cpu_seconds();
/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();
/// Wall time in ms of a fixed single-threaded integer loop. Printed before
/// and after every workload so host drift between runs is visible; no
/// metric is rescaled by it.
double reference_loop_ms();

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric list. A name may be added once.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}} on
/// one line, every value printed with full precision.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const MetricSet& metrics);

}  // namespace perfbench
