#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace meshsearch::util {

std::size_t LogHistogram::bucket_index(double v) {
  if (!(v > kMinValue)) return 0;  // NaN and tiny values collapse into 0
  // Bucket 1 + k holds values in (kMinValue * 2^(k/S), kMinValue * 2^((k+1)/S)].
  const double octaves = std::log2(v / kMinValue);
  const auto k = static_cast<std::int64_t>(
      std::ceil(octaves * static_cast<double>(kSubBuckets)) - 1);
  const auto idx = static_cast<std::size_t>(std::max<std::int64_t>(0, k)) + 1;
  return std::min(idx, kBucketCount - 1);
}

double LogHistogram::bucket_upper(std::size_t i) {
  if (i == 0) return kMinValue;
  return kMinValue *
         std::exp2(static_cast<double>(i) / static_cast<double>(kSubBuckets));
}

double LogHistogram::bucket_value(std::size_t i) {
  if (i == 0) return kMinValue;
  // Geometric midpoint of (upper(i-1), upper(i)] — halves the worst-case
  // relative error vs reporting the bucket edge.
  return kMinValue * std::exp2((static_cast<double>(i) - 0.5) /
                               static_cast<double>(kSubBuckets));
}

void LogHistogram::observe(double v, std::uint64_t times) {
  if (times == 0) return;
  if (!(v >= 0)) v = 0;  // negative and NaN clamp to 0
  buckets_[bucket_index(v)] += times;
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  count_ += times;
  sum_ += v * static_cast<double>(times);
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LogHistogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double LogHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count_)));
  const std::uint64_t target = std::max<std::uint64_t>(1, rank);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cum += buckets_[i];
    if (cum >= target)
      return std::clamp(bucket_value(i), min_, max_);
  }
  return max_;
}

LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys) {
  MS_CHECK(xs.size() == ys.size());
  MS_CHECK(xs.size() >= 2);
  const double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  LinearFit f;
  const double denom = n * sxx - sx * sx;
  MS_CHECK_MSG(denom != 0, "degenerate x values in fit_linear");
  f.slope = (n * sxy - sx * sy) / denom;
  f.intercept = (sy - f.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double e = ys[i] - (f.intercept + f.slope * xs[i]);
    ss_res += e * e;
  }
  f.r2 = ss_tot > 0 ? 1.0 - ss_res / ss_tot : 1.0;
  return f;
}

PowerFit fit_power(std::span<const double> xs, std::span<const double> ys) {
  MS_CHECK(xs.size() == ys.size());
  std::vector<double> lx(xs.size()), ly(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    MS_CHECK_MSG(xs[i] > 0 && ys[i] > 0, "fit_power requires positive data");
    lx[i] = std::log(xs[i]);
    ly[i] = std::log(ys[i]);
  }
  const LinearFit lf = fit_linear(lx, ly);
  return PowerFit{lf.intercept, lf.slope, lf.r2};
}

}  // namespace meshsearch::util
