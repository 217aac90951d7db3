// Unit tests for the observability layer (src/trace): recorder semantics,
// span nesting, attribution-sums-to-total over real algorithm runs, the
// cross-engine event-sequence guarantee, the exporters, and the bench
// harness file-name sanitizer.
#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench/bench_common.hpp"
#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "mesh/cost.hpp"
#include "mesh/cycle_ops.hpp"
#include "mesh/grid.hpp"
#include "multisearch/hierarchical.hpp"
#include "multisearch/partitioned.hpp"
#include "multisearch/query.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace {

using namespace meshsearch;
using trace::Primitive;
using trace::TraceRecorder;

TEST(TraceRecorder, CountAggregatesByPrimitiveAndSubmeshSize) {
  TraceRecorder rec("counting");
  rec.count(Primitive::kSort, 64, 24.0);
  rec.count(Primitive::kSort, 64, 24.0);
  rec.count(Primitive::kSort, 16, 12.0);
  rec.count(Primitive::kScan, 64, 16.0, 4);
  EXPECT_DOUBLE_EQ(rec.total_steps(), 76.0);

  const auto c = rec.counters();
  ASSERT_EQ(c.size(), 3u);
  const auto s64 = c.at(trace::PrimitiveKey{Primitive::kSort, 64});
  EXPECT_EQ(s64.calls, 2u);
  EXPECT_DOUBLE_EQ(s64.steps, 48.0);
  EXPECT_EQ(c.at(trace::PrimitiveKey{Primitive::kScan, 64}).calls, 4u);
}

TEST(TraceRecorder, ZeroCallRecordsAreDropped) {
  TraceRecorder rec;
  rec.count(Primitive::kRoute, 16, 10.0, 0);
  EXPECT_EQ(rec.total_steps(), 0.0);
  EXPECT_TRUE(rec.counters().empty());
  EXPECT_TRUE(rec.events().empty());
}

TEST(TraceRecorder, EventLogPreservesOrderAndSimTime) {
  TraceRecorder rec;
  rec.count(Primitive::kSort, 16, 12.0);
  rec.count(Primitive::kRar, 16, 50.0);
  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].prim, Primitive::kSort);
  EXPECT_DOUBLE_EQ(evs[0].sim_begin, 0.0);
  EXPECT_EQ(evs[1].prim, Primitive::kRar);
  EXPECT_DOUBLE_EQ(evs[1].sim_begin, 12.0);
}

TEST(TraceRecorder, SpansNestAndMeasureSimTime) {
  TraceRecorder rec;
  {
    TRACE_SPAN(&rec, "outer");
    rec.count(Primitive::kSort, 16, 10.0);
    {
      trace::SpanScope inner(&rec, "inner");
      rec.count(Primitive::kScan, 16, 5.0);
    }
  }
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_TRUE(spans[0].closed);
  EXPECT_DOUBLE_EQ(spans[0].sim_begin, 0.0);
  EXPECT_DOUBLE_EQ(spans[0].sim_end, 15.0);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_DOUBLE_EQ(spans[1].sim_begin, 10.0);
  EXPECT_DOUBLE_EQ(spans[1].sim_end, 15.0);
  EXPECT_LE(spans[0].wall_begin_us, spans[1].wall_begin_us);
}

TEST(TraceRecorder, OpenSpansAreSnapshottedUnclosed) {
  TraceRecorder rec;
  rec.begin_span("still-open");
  rec.count(Primitive::kSort, 4, 6.0);
  const auto spans = rec.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_FALSE(spans[0].closed);
  EXPECT_DOUBLE_EQ(spans[0].sim_end, 6.0);
  rec.end_span();
  EXPECT_TRUE(rec.spans()[0].closed);
}

TEST(TraceRecorder, EndSpanWithoutBeginThrows) {
  TraceRecorder rec;
  EXPECT_THROW(rec.end_span(), std::logic_error);
}

TEST(TraceRecorder, SpansRejectForeignThreadsWhileOpen) {
  // Spans are single-thread-at-a-time: while a stack is open, begin/end
  // from any other thread must fail loudly (always-on check, not a debug
  // assert), because interleaved spans from workers would silently corrupt
  // the nesting structure.
  TraceRecorder rec;
  rec.begin_span("outer");
  std::exception_ptr begin_err, end_err;
  std::thread intruder([&] {
    try {
      rec.begin_span("foreign");
    } catch (...) {
      begin_err = std::current_exception();
    }
    try {
      rec.end_span();
    } catch (...) {
      end_err = std::current_exception();
    }
    // Counter-style attribution stays thread-safe regardless of open spans.
    rec.count(Primitive::kScan, 16, 4.0);
  });
  intruder.join();
  ASSERT_TRUE(begin_err != nullptr);
  ASSERT_TRUE(end_err != nullptr);
  EXPECT_THROW(std::rethrow_exception(begin_err), std::logic_error);
  EXPECT_THROW(std::rethrow_exception(end_err), std::logic_error);
  rec.end_span();  // the owning thread still closes its span normally
  EXPECT_DOUBLE_EQ(rec.total_steps(), 4.0);
}

TEST(TraceRecorder, SpanOwnershipResetsWhenStackEmpties) {
  // Once every span is closed, another thread may open the next one: the
  // owner is whoever opens the outermost span, not whoever went first.
  TraceRecorder rec;
  rec.begin_span("first");
  rec.end_span();
  std::exception_ptr err;
  std::thread other([&] {
    try {
      rec.begin_span("second");
      rec.end_span();
    } catch (...) {
      err = std::current_exception();
    }
  });
  other.join();
  EXPECT_TRUE(err == nullptr);
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_TRUE(rec.spans()[1].closed);
}

TEST(TraceRecorder, NullSinkSpanScopeIsNoop) {
  EXPECT_NO_THROW({ trace::SpanScope s(nullptr, "nothing"); });
}

// --- Attribution sums to the charged total on real algorithm runs. --------

TEST(TraceAttribution, HierarchicalMultisearchSumsToTotalCost) {
  util::Rng rng(7);
  // Large enough that the log*-recursion produces at least one band B_i
  // ahead of the B* suffix (tiny DAGs degenerate to B* only).
  const auto g = ds::build_hierarchical_dag(1 << 16, 2.0, 3, rng);
  const msearch::HierarchicalDag dag(g, 2.0);
  const auto shape = g.shape_for(g.vertex_count());
  auto qs = msearch::make_queries(g.vertex_count());
  util::Rng qrng(11);
  for (auto& q : qs)
    q.key[0] = static_cast<std::int64_t>(qrng.uniform(1ull << 40));

  TraceRecorder rec("counting");
  mesh::CostModel m;
  m.trace = &rec;
  const auto res =
      msearch::hierarchical_multisearch(dag, ds::HashWalk{0}, qs, m, shape);

  // Every charged step is attributed to exactly one primitive.
  double attributed = 0;
  for (const auto& [key, stat] : rec.counters()) attributed += stat.steps;
  EXPECT_DOUBLE_EQ(attributed, rec.total_steps());
  EXPECT_DOUBLE_EQ(rec.total_steps(), res.cost.steps);

  // The span tree covers Algorithm 1's step numbering.
  bool saw_alg1 = false, saw_band = false, saw_bstar = false;
  for (const auto& sp : rec.spans()) {
    saw_alg1 |= sp.name == "algorithm1";
    saw_band |= sp.name.rfind("band ", 0) == 0;
    saw_bstar |= sp.name.rfind("alg1.step4", 0) == 0;
    EXPECT_TRUE(sp.closed);
  }
  EXPECT_TRUE(saw_alg1);
  EXPECT_TRUE(saw_band);
  EXPECT_TRUE(saw_bstar);
}

TEST(TraceAttribution, AlphaPartitionedMultisearchSumsToTotalCost) {
  const std::size_t nkeys = 1 << 10;
  ds::KaryTree tree(ds::iota_keys(nkeys), 2, ds::TreeMode::kDirected);
  util::Rng rng(13);
  auto qs = ds::uniform_key_queries(nkeys, nkeys, rng);

  TraceRecorder rec("counting");
  mesh::CostModel m;
  m.trace = &rec;
  const auto shape = tree.graph().shape_for(qs.size());
  const auto res = msearch::multisearch_alpha(
      tree.graph(), tree.alpha_splitting(), tree.rank_count(), qs, m, shape);

  double attributed = 0;
  for (const auto& [key, stat] : rec.counters()) attributed += stat.steps;
  EXPECT_DOUBLE_EQ(attributed, rec.total_steps());
  EXPECT_DOUBLE_EQ(rec.total_steps(), res.cost.steps);

  bool saw_phase = false, saw_cm = false;
  for (const auto& sp : rec.spans()) {
    saw_phase |= sp.name.rfind("log-phase ", 0) == 0;
    saw_cm |= sp.name == "constrained-multisearch";
  }
  EXPECT_TRUE(saw_phase);
  EXPECT_TRUE(saw_cm);
}

// --- Cross-engine: same workload, same recorded operation sequence. -------

TEST(TraceCrossEngine, EnginesRecordSameOperationSequence) {
  const mesh::MeshShape shape(4);
  const double p = static_cast<double>(shape.size());
  util::Rng rng(17);
  std::vector<std::int64_t> vals(shape.size());
  for (auto& v : vals) v = rng.uniform_range(-1000, 1000);
  const auto perm = util::random_permutation(shape.size(), rng);
  const std::vector<std::uint32_t> dest(perm.begin(), perm.end());
  std::vector<std::int64_t> addr(shape.size());
  for (auto& a : addr)
    a = static_cast<std::int64_t>(rng.uniform(shape.size()));
  const std::vector<std::int64_t> ones(shape.size(), 1);

  // Cycle engine: run the workload for real, measured steps.
  TraceRecorder cyc("cycle");
  {
    auto g = mesh::Grid<std::int64_t>::from_snake(shape, vals);
    g.set_trace(&cyc);
    g.shearsort();
    g.snake_scan(std::plus<std::int64_t>{});
    g.broadcast_from_origin();
    g.route_permutation(dest);
    mesh::cycle_random_access_read(shape, vals, addr, 0, &cyc);
    mesh::cycle_random_access_write(shape, vals, addr, ones, &cyc);
  }

  // Counting engine: the same operation sequence, charged analytically.
  TraceRecorder cnt("counting");
  {
    mesh::CostModel m;
    m.trace = &cnt;
    m.sort(p);
    m.scan(p);
    m.broadcast(p);
    m.route(p);
    m.rar(p);
    m.raw(p);
  }

  const auto ce = cyc.events();
  const auto ke = cnt.events();
  ASSERT_EQ(ce.size(), ke.size());
  for (std::size_t i = 0; i < ce.size(); ++i) {
    EXPECT_EQ(ce[i].prim, ke[i].prim) << "event " << i;
    EXPECT_DOUBLE_EQ(ce[i].p, ke[i].p) << "event " << i;
    EXPECT_GT(ce[i].steps, 0.0);
  }
}

// --- Exporters. -----------------------------------------------------------

TEST(TraceExport, PerfettoJsonContainsSpansAndPrimitives) {
  TraceRecorder rec("counting");
  {
    TRACE_SPAN(&rec, "phase-one");
    rec.count(Primitive::kSort, 64, 24.0);
  }
  std::ostringstream os;
  trace::write_trace_json(rec, os);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(j.find("phase-one"), std::string::npos);
  EXPECT_NE(j.find("sort p=64"), std::string::npos);
  EXPECT_NE(j.find("counting"), std::string::npos);
}

TEST(TraceExport, MetricsJsonAndTableListEveryPrimitive) {
  TraceRecorder rec("cycle");
  rec.count(Primitive::kScan, 16, 12.0, 2);
  rec.count(Primitive::kRoute, 16, 9.0);
  std::ostringstream os;
  trace::write_metrics_json(rec, os);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"primitives\""), std::string::npos);
  EXPECT_NE(j.find("\"spans\""), std::string::npos);
  EXPECT_NE(j.find("\"total_steps\""), std::string::npos);
  EXPECT_NE(j.find("\"scan\""), std::string::npos);

  std::ostringstream ts;
  trace::metrics_table(rec).print(ts);
  EXPECT_NE(ts.str().find("scan"), std::string::npos);
  EXPECT_NE(ts.str().find("route"), std::string::npos);
}

TEST(TraceExport, FileWritersReportFailureInsteadOfThrowing) {
  TraceRecorder rec;
  rec.count(Primitive::kSort, 4, 6.0);
  EXPECT_FALSE(trace::write_trace_json_file(
      rec, "/nonexistent_dir_for_test/x.trace.json"));
  EXPECT_FALSE(trace::write_metrics_json_file(
      rec, "/nonexistent_dir_for_test/x.metrics.json"));
}

// --- Bench harness helpers. -----------------------------------------------

TEST(BenchCommon, SanitizeCsvName) {
  EXPECT_EQ(bench::sanitize_csv_name("e2_zipf(1.1)"), "e2_zipf_1.1");
  EXPECT_EQ(bench::sanitize_csv_name("plain-name_0.9"), "plain-name_0.9");
  EXPECT_EQ(bench::sanitize_csv_name("a b//c"), "a_b_c");
  EXPECT_EQ(bench::sanitize_csv_name("(((("), "unnamed");
  EXPECT_EQ(bench::sanitize_csv_name(""), "unnamed");
}

TEST(BenchCommon, CsvNameCollisionsGetNumericSuffix) {
  bench::CsvNameRegistry reg;
  // First claim wins the clean stem.
  EXPECT_EQ(bench::disambiguate_csv_name("e2_zipf(1.1)", "e2_zipf_1.1", reg),
            "e2_zipf_1.1");
  // The SAME raw name re-emits to the same file — a refresh, not a clash.
  EXPECT_EQ(bench::disambiguate_csv_name("e2_zipf(1.1)", "e2_zipf_1.1", reg),
            "e2_zipf_1.1");
  // Distinct raw names whose sanitized forms collide used to silently
  // overwrite each other; now they get numeric suffixes.
  EXPECT_EQ(bench::disambiguate_csv_name("e2_zipf 1.1", "e2_zipf_1.1", reg),
            "e2_zipf_1.1_2");
  EXPECT_EQ(bench::disambiguate_csv_name("e2_zipf/1.1", "e2_zipf_1.1", reg),
            "e2_zipf_1.1_3");
  // Suffixed stems are reserved too: a raw name sanitizing straight to one
  // cannot steal it.
  EXPECT_EQ(bench::disambiguate_csv_name("other", "e2_zipf_1.1_2", reg),
            "e2_zipf_1.1_2_2");
  // Disambiguated raw names stay stable on re-emit.
  EXPECT_EQ(bench::disambiguate_csv_name("e2_zipf 1.1", "e2_zipf_1.1", reg),
            "e2_zipf_1.1_2");
}

}  // namespace
