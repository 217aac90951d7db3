// Observability-layer tests: LogHistogram bucket math and percentiles
// (against a sorted-vector oracle), StatsRegistry (gauges + histograms)
// snapshot determinism and concurrent updates, the registry-backed
// TraceRecorder::metric() (the O(n^2) overwrite fix), the JSON reader/writer
// round trip, and the bench baseline comparison logic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "trace/stats.hpp"
#include "trace/trace.hpp"
#include "util/benchcmp.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using meshsearch::stats::StatsRegistry;
using meshsearch::util::BenchCompareOptions;
using meshsearch::util::compare_bench;
using meshsearch::util::JsonValue;
using meshsearch::util::LogHistogram;
using meshsearch::util::parse_json;

namespace {

// ---------------------------------------------------------------------------
// LogHistogram

TEST(LogHistogram, BucketIndexIsMonotoneAcrossBoundaries) {
  std::size_t prev = 0;
  for (double v : {0.0, 1e-4, 1e-3, 2e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 100.0,
                   1e6, 1e12, 1e30}) {
    const std::size_t i = LogHistogram::bucket_index(v);
    EXPECT_GE(i, prev) << "v=" << v;
    EXPECT_LT(i, LogHistogram::kBucketCount);
    prev = i;
  }
}

TEST(LogHistogram, BucketContainsItsRepresentative) {
  for (std::size_t i = 1; i + 1 < LogHistogram::kBucketCount; ++i) {
    const double rep = LogHistogram::bucket_value(i);
    EXPECT_EQ(LogHistogram::bucket_index(rep), i) << "bucket " << i;
    // bucket_upper is the mathematical boundary between buckets i and i+1;
    // libm rounding may land the exact boundary value on either side, but
    // values clearly below/above it must classify correctly.
    const double up = LogHistogram::bucket_upper(i);
    const std::size_t at = LogHistogram::bucket_index(up);
    EXPECT_TRUE(at == i || at == i + 1) << "bucket " << i << " at " << at;
    EXPECT_LE(LogHistogram::bucket_index(up * 0.999), i) << "bucket " << i;
    EXPECT_GT(LogHistogram::bucket_index(up * 1.001), i) << "bucket " << i;
  }
}

TEST(LogHistogram, ExactMomentsAndEmptyBehavior) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  h.observe(3.25);
  h.observe(1.5, 4);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 3.25 + 4 * 1.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.5);
  EXPECT_DOUBLE_EQ(h.max(), 3.25);
  EXPECT_DOUBLE_EQ(h.mean(), (3.25 + 6.0) / 5);
}

/// Percentiles must track a sorted-vector oracle within the documented
/// ~4.4% bucket resolution (plus the clamp to exact min/max).
TEST(LogHistogram, PercentilesMatchSortedVectorOracle) {
  meshsearch::util::Rng rng(1234);
  std::vector<double> values;
  LogHistogram h;
  for (int i = 0; i < 20000; ++i) {
    // Log-uniform over ~6 decades, the realistic span of wall timings.
    const double v =
        std::pow(10.0, static_cast<double>(rng.uniform(6'000'000)) / 1e6);
    values.push_back(v);
    h.observe(v);
  }
  std::sort(values.begin(), values.end());
  for (double q : {0.5, 0.9, 0.95, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const double oracle = values[rank - 1];
    const double est = h.percentile(q);
    EXPECT_NEAR(est / oracle, 1.0, 0.05) << "q=" << q;
  }
  EXPECT_DOUBLE_EQ(h.percentile(1.0), h.max());
}

TEST(LogHistogram, MergeEqualsInterleavedObservation) {
  LogHistogram a, b, both;
  meshsearch::util::Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    // Quarter-integer values keep every partial sum exact in a double, so
    // merge order cannot perturb `sum` and equality is bit-for-bit.
    const double v = static_cast<double>(rng.uniform(100000)) * 0.25;
    (i % 2 == 0 ? a : b).observe(v);
    both.observe(v);
  }
  a.merge(b);
  EXPECT_EQ(a, both);
}

// ---------------------------------------------------------------------------
// StatsRegistry

TEST(StatsRegistry, GaugesHistogramsRoundTrip) {
  StatsRegistry reg;
  reg.set("requests", 3.0);
  reg.set("requests", 5.0);  // set semantics: the last write wins
  reg.set("温度", 21.5);  // names are arbitrary bytes
  reg.observe("lat_us", 100.0);
  reg.observe("lat_us", 200.0);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].name, "requests");
  EXPECT_DOUBLE_EQ(snap.gauges[0].value, 5.0);
  EXPECT_EQ(snap.gauges[1].name, "温度");
  EXPECT_DOUBLE_EQ(snap.gauges[1].value, 21.5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].hist.count(), 2u);
  EXPECT_DOUBLE_EQ(snap.histograms[0].hist.sum(), 300.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].hist.min(), 100.0);
  EXPECT_DOUBLE_EQ(snap.histograms[0].hist.max(), 200.0);
}

TEST(StatsRegistry, ConcurrentUpdatesMergeExactly) {
  StatsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  reg.observe("hits", 1.0);  // registered first, so it snapshots first
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      const std::string gauge = "g" + std::to_string(t);
      for (int i = 0; i < kPerThread; ++i) {
        reg.observe("hits", 1.0);
        reg.observe("obs", static_cast<double>(t + 1));
        reg.set(gauge, static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = reg.snapshot();
  constexpr auto kTotal = static_cast<std::uint64_t>(kThreads) * kPerThread;
  ASSERT_EQ(snap.histograms.size(), 2u);
  EXPECT_EQ(snap.histograms[0].name, "hits");
  EXPECT_EQ(snap.histograms[0].hist.count(), kTotal + 1);
  EXPECT_DOUBLE_EQ(snap.histograms[0].hist.sum(),
                   static_cast<double>(kTotal + 1));
  EXPECT_EQ(snap.histograms[1].name, "obs");
  EXPECT_EQ(snap.histograms[1].hist.count(), kTotal);
  // Sum of (t + 1) * kPerThread over t: exact in a double at this size.
  EXPECT_DOUBLE_EQ(snap.histograms[1].hist.sum(),
                   kPerThread * kThreads * (kThreads + 1) / 2.0);
  EXPECT_DOUBLE_EQ(snap.histograms[1].hist.min(), 1.0);
  EXPECT_DOUBLE_EQ(snap.histograms[1].hist.max(), kThreads);
  ASSERT_EQ(snap.gauges.size(), static_cast<std::size_t>(kThreads));
  for (const auto& g : snap.gauges)
    EXPECT_DOUBLE_EQ(g.value, kPerThread - 1) << g.name;
}

TEST(StatsRegistry, SnapshotIsDeterministicRegistrationOrder) {
  StatsRegistry reg;
  for (const char* name : {"z", "a", "m"}) {
    reg.observe(name, 1.0);
    reg.set(name, 1.0);
  }
  reg.observe("a", 2.0);  // re-use keeps the first registration's slot
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 3u);
  ASSERT_EQ(snap.gauges.size(), 3u);
  const std::vector<std::string> want = {"z", "a", "m"};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(snap.histograms[i].name, want[i]);
    EXPECT_EQ(snap.gauges[i].name, want[i]);
  }
  EXPECT_EQ(snap.histograms[1].hist.count(), 2u);
}

// ---------------------------------------------------------------------------
// TraceRecorder::metric — the O(n^2) overwrite fix

TEST(TraceMetrics, TenThousandMetricsKeepOrderAndOverwrite) {
  meshsearch::trace::TraceRecorder rec("test");
  constexpr int kN = 10000;
  // Appending (rather than `"m" + std::to_string(i)`) sidesteps a GCC 12
  // -Wrestrict false positive that breaks -Werror builds.
  const auto name = [](int i) {
    std::string s = "m";
    s += std::to_string(i);
    return s;
  };
  for (int i = 0; i < kN; ++i)
    rec.metric(name(i), static_cast<double>(i));
  // Overwrite every metric once — the old implementation scanned the whole
  // vector per call, turning this loop quadratic.
  for (int i = 0; i < kN; ++i)
    rec.metric(name(i), static_cast<double>(2 * i));
  const auto metrics = rec.stats().snapshot().gauges;
  ASSERT_EQ(metrics.size(), static_cast<std::size_t>(kN));
  for (int i : {0, 1, 4999, 9999}) {
    EXPECT_EQ(metrics[static_cast<std::size_t>(i)].name, name(i));
    EXPECT_DOUBLE_EQ(metrics[static_cast<std::size_t>(i)].value, 2.0 * i);
  }
}

// ---------------------------------------------------------------------------
// JSON reader/writer

TEST(Json, ParseDumpRoundTrip) {
  const char* doc =
      R"({"a": [1, 2.5, "x\n", true, null], "b": {"nested": -3e2}})";
  const auto parsed = parse_json(doc);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const auto again = parse_json(parsed.value.dump());
  ASSERT_TRUE(again.ok) << again.error;
  EXPECT_EQ(again.value.dump(), parsed.value.dump());
  EXPECT_DOUBLE_EQ(
      again.value.find("b")->get_number("nested"), -300.0);
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"}) {
    EXPECT_FALSE(parse_json(bad).ok) << bad;
  }
}

// ---------------------------------------------------------------------------
// Bench baseline comparison

JsonValue tiny_bench(double steps, double wall) {
  const std::string text = R"({
    "schema": "meshsearch.bench.v1",
    "exp": "t",
    "series": [{
      "name": "s",
      "columns": ["n", "steps", "wall_us", "ok"],
      "rows": [[64, )" + std::to_string(steps) + ", " +
                           std::to_string(wall) + R"(, "yes"]]
    }],
    "wall": [{"name": "w", "p50_us": )" + std::to_string(wall) + R"(,
              "p95_us": )" + std::to_string(wall) + R"(}]
  })";
  const auto parsed = parse_json(text);
  EXPECT_TRUE(parsed.ok) << parsed.error;
  return parsed.value;
}

TEST(BenchCmp, IdenticalReportsPass) {
  const auto doc = tiny_bench(1000.0, 50.0);
  const auto res = compare_bench(doc, doc, {});
  EXPECT_TRUE(res.ok);
  EXPECT_TRUE(res.issues.empty());
  EXPECT_GT(res.compared_values, 0u);
}

TEST(BenchCmp, ChargedDriftIsFatalEitherDirection) {
  const auto base = tiny_bench(1000.0, 50.0);
  for (double drifted : {1000.1, 999.9}) {
    const auto res = compare_bench(base, tiny_bench(drifted, 50.0), {});
    EXPECT_FALSE(res.ok) << drifted;
  }
  // Within the libm tolerance: fine.
  BenchCompareOptions opt;
  EXPECT_TRUE(
      compare_bench(base, tiny_bench(1000.0 * (1 + 1e-9), 50.0), opt).ok);
}

TEST(BenchCmp, WallRegressionWarnsUnlessGated) {
  const auto base = tiny_bench(1000.0, 50.0);
  const auto slow = tiny_bench(1000.0, 80.0);  // +60% wall
  BenchCompareOptions warn_only;
  const auto res = compare_bench(base, slow, warn_only);
  EXPECT_TRUE(res.ok);
  EXPECT_FALSE(res.issues.empty());
  BenchCompareOptions gated;
  gated.gate_wall = true;
  EXPECT_FALSE(compare_bench(base, slow, gated).ok);
  // Faster wall clock is never an issue.
  EXPECT_TRUE(compare_bench(base, tiny_bench(1000.0, 10.0), gated).ok);
}

TEST(BenchCmp, MissingSeriesOrRowFails) {
  const auto base = tiny_bench(1000.0, 50.0);
  auto empty = parse_json(
      R"({"schema": "meshsearch.bench.v1", "exp": "t", "series": []})");
  ASSERT_TRUE(empty.ok);
  EXPECT_FALSE(compare_bench(base, empty.value, {}).ok);
  // Extra series in current is fine (new coverage).
  EXPECT_TRUE(compare_bench(empty.value, base, {}).ok);
}

TEST(BenchCmp, SchemaValidation) {
  using meshsearch::util::validate_bench_schema;
  EXPECT_NE(validate_bench_schema(JsonValue::make_null()), "");
  const auto good = tiny_bench(1.0, 1.0);
  EXPECT_EQ(validate_bench_schema(good), "");
  const auto bad =
      parse_json(R"({"schema": "meshsearch.bench.v2", "exp": "t"})");
  ASSERT_TRUE(bad.ok);
  EXPECT_NE(validate_bench_schema(bad.value), "");
}

TEST(BenchCmp, WallMetricNameClassifier) {
  using meshsearch::util::is_wall_metric;
  EXPECT_TRUE(is_wall_metric("wall_us"));
  EXPECT_TRUE(is_wall_metric("batch latency"));
  EXPECT_TRUE(is_wall_metric("p95_ms"));
  EXPECT_FALSE(is_wall_metric("steps"));
  EXPECT_FALSE(is_wall_metric("steps/sqrt(n)"));
  EXPECT_FALSE(is_wall_metric("naive/warm"));
}

// ---------------------------------------------------------------------------
// BenchReport writer (schema conformance of what the benches emit)

TEST(BenchReport, EmitsSchemaValidJson) {
  meshsearch::util::Table t({"n", "steps"});
  t.add_row({std::int64_t{64}, 123.5});
  const char* argv[] = {"prog", "--smoke"};
  meshsearch::bench::BenchReport report("unit", 2,
                                        const_cast<char**>(argv));
  report.write_on_exit = false;
  report.set_config("smoke", "1");
  report.add_table("series_a", t);
  report.observe_wall("w", 10.0);
  report.observe_wall("w", 20.0);
  const auto doc = report.to_json();
  EXPECT_EQ(meshsearch::util::validate_bench_schema(doc), "");
  EXPECT_EQ(doc.get_string("exp"), "unit");
  const auto round = parse_json(doc.dump(2));
  ASSERT_TRUE(round.ok) << round.error;
  // Self-compare must pass the gate.
  EXPECT_TRUE(compare_bench(doc, round.value, {}).ok);
}

}  // namespace
