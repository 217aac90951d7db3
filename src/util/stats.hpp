// Small statistics toolkit shared by the benchmark harness and the runtime
// observability layer: ordinary-least-squares fits (notably the log-log
// power-law fit used to verify the paper's growth-rate claims, e.g. slope
// ~ 0.5 for O(sqrt n)), and the log-bucketed histogram that is the ONE
// implementation of percentile math in this repo.
//
// Every consumer of percentiles — the StatsRegistry histograms
// (trace/stats.hpp), the service's per-tenant latency reports
// (service/tenant.hpp) and the BENCH_*.json emitter
// (bench/bench_common.hpp) — goes through LogHistogram, so bench CSVs and
// BENCH_*.json can never disagree on what "p95" means.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace meshsearch::util {

/// HDR-style log-bucketed histogram over non-negative doubles (typically
/// wall-clock microseconds). Buckets are geometric with kSubBuckets buckets
/// per octave, so any recorded value is off from its bucket's representative
/// by at most ~ 2^(1/(2*kSubBuckets)) - 1 (~4.4% relative error at 8
/// sub-buckets); exact min/max/sum/count ride alongside. Values below kMinValue
/// collapse into bucket 0, values above the top bucket into the last one.
///
/// Plain value type, not thread-safe; trace/stats.hpp keeps its histograms
/// behind the registry mutex.
class LogHistogram {
 public:
  static constexpr std::size_t kSubBuckets = 8;   ///< buckets per power of 2
  static constexpr double kMinValue = 1e-3;       ///< 1 ns when unit = us
  static constexpr std::size_t kOctaves = 46;     ///< up to ~2^43 us (~100 d)
  static constexpr std::size_t kBucketCount = 2 + kOctaves * kSubBuckets;

  /// Bucket holding value `v`. Total order: bucket_index is monotone in v.
  static std::size_t bucket_index(double v);
  /// Representative value (geometric bucket midpoint) reported for bucket i.
  static double bucket_value(std::size_t i);
  /// Inclusive upper bound of bucket i (= lower bound of bucket i+1).
  static double bucket_upper(std::size_t i);

  void observe(double v, std::uint64_t times = 1);
  void merge(const LogHistogram& other);

  std::uint64_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  double mean() const;

  /// Quantile q in [0, 1]: the representative value of the first bucket at
  /// which the cumulative count reaches ceil(q * count). q=0 -> min bucket,
  /// q=1 -> max bucket; clamped into [min, max] so p0/p100 are exact.
  /// Returns 0 on an empty histogram.
  double percentile(double q) const;
  double p50() const { return percentile(0.50); }
  double p90() const { return percentile(0.90); }
  double p95() const { return percentile(0.95); }
  double p99() const { return percentile(0.99); }

  const std::array<std::uint64_t, kBucketCount>& buckets() const {
    return buckets_;
  }

  friend bool operator==(const LogHistogram&, const LogHistogram&) = default;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
};

/// Ordinary least squares y = a + b*x. Returns {a, b, r2}.
struct LinearFit {
  double intercept = 0;
  double slope = 0;
  double r2 = 0;
};

LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys);

/// Power-law fit y = c * x^e via OLS in log-log space. Returns
/// {log(c), e, r2}; `exponent()` is the quantity the experiments check.
struct PowerFit {
  double log_coeff = 0;
  double exponent = 0;
  double r2 = 0;
};

PowerFit fit_power(std::span<const double> xs, std::span<const double> ys);

}  // namespace meshsearch::util
