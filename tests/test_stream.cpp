// Streaming batch scheduler tests (stream.hpp): oracle agreement per batch,
// permutation invariance of the stream, warm-vs-cold bit-identity of batch
// costs, the naive re-setup baseline losing at m/n >= 4, batch planning
// properties, trace metrics, and the 1-vs-8-thread determinism contract of
// DESIGN.md §5.6 extended to StreamScheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "mesh/fault.hpp"
#include "multisearch/query.hpp"
#include "multisearch/sequential.hpp"
#include "multisearch/setup.hpp"
#include "multisearch/stream.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace {

using namespace meshsearch;
using namespace meshsearch::msearch;
using ds::KaryTree;
using ds::TreeMode;

// ---------------------------------------------------------------------------
// Workload fixtures: one long-lived structure per engine kind, so
// PreparedSearch's cached pointers stay valid for the whole test.
// ---------------------------------------------------------------------------

struct Alg1Fixture {
  DistributedGraph g;
  HierarchicalDag dag;
  mesh::MeshShape shape;

  // 3000 vertices like test_determinism.cpp: big enough that the paper plan
  // has non-empty bands and the geometric plan passes its capacity check.
  explicit Alg1Fixture(std::uint64_t seed = 20)
      : g([&] {
          util::Rng rng(seed);
          return ds::build_hierarchical_dag(3000, 2.0, 3, rng);
        }()),
        dag(g, 2.0),
        shape(g.shape_for(g.vertex_count())) {}

  std::vector<Query> stream(std::size_t m, std::uint64_t seed = 21) const {
    auto qs = make_queries(m);
    util::Rng rng(seed);
    for (auto& q : qs)
      q.key[0] = static_cast<std::int64_t>(rng.uniform(1ull << 40));
    return qs;
  }
};

struct Alg2Fixture {
  KaryTree tree;
  mesh::MeshShape shape;

  Alg2Fixture() : tree(ds::iota_keys(500), 3, TreeMode::kDirected),
                  shape(tree.graph().shape_for(tree.graph().vertex_count())) {}

  std::vector<Query> stream(std::size_t m, std::uint64_t seed = 22) const {
    util::Rng rng(seed);
    return ds::uniform_key_queries(m, 520, rng);
  }
};

struct Alg3Fixture {
  KaryTree tree;
  Splitting s1, s2;
  mesh::MeshShape shape;

  Alg3Fixture() : tree(ds::iota_keys(256), 2, TreeMode::kUndirected),
                  shape(tree.graph().shape_for(tree.graph().vertex_count())) {
    std::tie(s1, s2) = tree.alpha_beta_splittings();
  }

  std::vector<Query> stream(std::size_t m, std::uint64_t seed = 23) const {
    auto qs = make_queries(m);
    util::Rng rng(seed);
    for (auto& q : qs) {
      const auto a = rng.uniform_range(-3, 259);
      q.key[0] = a;
      q.key[1] = a + rng.uniform_range(0, 30);
    }
    return qs;
  }
};

std::map<std::int32_t, QueryOutcome> outcomes_by_qid(
    const std::vector<Query>& qs) {
  std::map<std::int32_t, QueryOutcome> out;
  for (const auto& q : qs)
    out[q.qid] = QueryOutcome{q.steps, q.acc0, q.acc1, q.result};
  return out;
}

// ---------------------------------------------------------------------------
// (a) Every batch's outcomes match the sequential reference, query by query.
// ---------------------------------------------------------------------------

TEST(StreamOracle, Alg1PaperMatchesSequential) {
  const Alg1Fixture fx;
  const std::size_t cap = fx.shape.size();
  auto stream = fx.stream(3 * cap + cap / 2 + 7);  // partial last batch
  auto expect = stream;
  sequential_multisearch(fx.g, ds::HashWalk{0}, expect);
  const mesh::CostModel m;
  PreparedSearch engine(fx.dag, PlanKind::kPaper, ds::HashWalk{0}, m,
                        fx.shape);
  StreamScheduler sched(engine, BatchPolicy{});
  const auto res = sched.run(stream);
  EXPECT_EQ(res.batches.size(), 4u);
  EXPECT_EQ(diff_outcomes(outcomes(stream), outcomes(expect)), "");
}

TEST(StreamOracle, Alg1GeometricMatchesSequential) {
  const Alg1Fixture fx;
  const std::size_t cap = fx.shape.size();
  auto stream = fx.stream(2 * cap + 13);
  auto expect = stream;
  sequential_multisearch(fx.g, ds::HashWalk{0}, expect);
  const mesh::CostModel m;
  PreparedSearch engine(fx.dag, PlanKind::kGeometric, ds::HashWalk{0}, m,
                        fx.shape);
  StreamScheduler sched(engine, BatchPolicy{});
  sched.run(stream);
  EXPECT_EQ(diff_outcomes(outcomes(stream), outcomes(expect)), "");
}

TEST(StreamOracle, Alg2AlphaMatchesSequential) {
  const Alg2Fixture fx;
  const std::size_t cap = fx.shape.size();
  auto stream = fx.stream(3 * cap + 5);
  auto expect = stream;
  sequential_multisearch(fx.tree.graph(), fx.tree.rank_count(), expect);
  const mesh::CostModel m;
  PreparedSearch engine(EngineKind::kAlg2Alpha, fx.tree.graph(),
                        fx.tree.alpha_splitting(), fx.tree.alpha_splitting(),
                        fx.tree.rank_count(), m, fx.shape);
  StreamScheduler sched(engine, BatchPolicy{});
  sched.run(stream);
  EXPECT_EQ(diff_outcomes(outcomes(stream), outcomes(expect)), "");
}

TEST(StreamOracle, Alg3AlphaBetaMatchesSequential) {
  const Alg3Fixture fx;
  const std::size_t cap = fx.shape.size();
  auto stream = fx.stream(2 * cap + 9);
  auto expect = stream;
  sequential_multisearch(fx.tree.graph(), fx.tree.euler_scan(), expect);
  const mesh::CostModel m;
  PreparedSearch engine(EngineKind::kAlg3AlphaBeta, fx.tree.graph(), fx.s1,
                        fx.s2, fx.tree.euler_scan(), m, fx.shape);
  StreamScheduler sched(engine, BatchPolicy{});
  sched.run(stream);
  EXPECT_EQ(diff_outcomes(outcomes(stream), outcomes(expect)), "");
}

TEST(StreamOracle, LocalityReorderMatchesSequentialInArrivalPositions) {
  const Alg2Fixture fx;
  const std::size_t cap = fx.shape.size();
  auto stream = fx.stream(3 * cap + 17);
  auto expect = stream;
  sequential_multisearch(fx.tree.graph(), fx.tree.rank_count(), expect);
  const mesh::CostModel m;
  PreparedSearch engine(EngineKind::kAlg2Alpha, fx.tree.graph(),
                        fx.tree.alpha_splitting(), fx.tree.alpha_splitting(),
                        fx.tree.rank_count(), m, fx.shape);
  BatchPolicy policy;
  policy.order = BatchOrder::kLocalityReorder;
  StreamScheduler sched(engine, policy);
  sched.run(stream);
  // Outcomes land back in arrival positions regardless of batch order.
  EXPECT_EQ(diff_outcomes(outcomes(stream), outcomes(expect)), "");
}

// ---------------------------------------------------------------------------
// (b) A shuffled stream yields the identical multiset of outcomes.
// ---------------------------------------------------------------------------

TEST(StreamShuffle, ShuffledStreamSameOutcomeMultiset) {
  const Alg1Fixture fx;
  const std::size_t cap = fx.shape.size();
  auto stream = fx.stream(2 * cap + 31);
  auto shuffled = stream;
  util::Rng rng(24);
  const auto perm = util::random_permutation(shuffled.size(), rng);
  for (std::size_t i = 0; i < perm.size(); ++i)
    shuffled[i] = stream[perm[i]];

  const mesh::CostModel m;
  PreparedSearch e1(fx.dag, PlanKind::kPaper, ds::HashWalk{0}, m, fx.shape);
  StreamScheduler s1(e1, BatchPolicy{});
  s1.run(stream);
  PreparedSearch e2(fx.dag, PlanKind::kPaper, ds::HashWalk{0}, m, fx.shape);
  StreamScheduler s2(e2, BatchPolicy{});
  s2.run(shuffled);
  EXPECT_EQ(outcomes_by_qid(stream), outcomes_by_qid(shuffled));
}

TEST(StreamShuffle, LocalityAndFifoSameOutcomeMultiset) {
  const Alg3Fixture fx;
  auto fifo_stream = fx.stream(3 * fx.shape.size() + 11);
  auto loc_stream = fifo_stream;
  const mesh::CostModel m;
  PreparedSearch e1(EngineKind::kAlg3AlphaBeta, fx.tree.graph(), fx.s1, fx.s2,
                    fx.tree.euler_scan(), m, fx.shape);
  StreamScheduler s1(e1, BatchPolicy{});
  s1.run(fifo_stream);
  PreparedSearch e2(EngineKind::kAlg3AlphaBeta, fx.tree.graph(), fx.s1, fx.s2,
                    fx.tree.euler_scan(), m, fx.shape);
  BatchPolicy loc;
  loc.order = BatchOrder::kLocalityReorder;
  StreamScheduler s2(e2, loc);
  s2.run(loc_stream);
  EXPECT_EQ(outcomes_by_qid(fifo_stream), outcomes_by_qid(loc_stream));
}

// ---------------------------------------------------------------------------
// (c) Warm batches 2..k: outcomes and per-batch costs bit-identical to cold
// standalone runs (a fresh engine serving that batch as its first).
// ---------------------------------------------------------------------------

TEST(StreamWarm, WarmBatchesBitIdenticalToColdStandaloneRuns) {
  const Alg1Fixture fx;
  const std::size_t cap = fx.shape.size();
  const auto stream0 = fx.stream(5 * cap);
  const BatchPolicy policy;
  const auto slices = plan_batches(stream0, policy, cap);
  ASSERT_EQ(slices.size(), 5u);

  const mesh::CostModel m;
  PreparedSearch warm(fx.dag, PlanKind::kPaper, ds::HashWalk{0}, m, fx.shape);
  auto warm_stream = stream0;
  StreamScheduler sched(warm, policy);
  const auto res = sched.run(warm_stream);

  for (std::size_t b = 0; b < slices.size(); ++b) {
    PreparedSearch cold(fx.dag, PlanKind::kPaper, ds::HashWalk{0}, m,
                        fx.shape);
    // One-time setup is charged identically however often it is re-derived.
    EXPECT_EQ(cold.setup_cost().steps, warm.setup_cost().steps);
    std::vector<Query> batch;
    for (const auto idx : slices[b]) batch.push_back(stream0[idx]);
    const auto rep = cold.run_batch(batch);
    // Bit-identical per-batch charges: warm batches pay exactly what a cold
    // engine's FIRST batch pays (setup aside) — no drift batch to batch.
    EXPECT_EQ(rep.inject.steps, res.batches[b].inject.steps);
    EXPECT_EQ(rep.run.steps, res.batches[b].run.steps);
    EXPECT_EQ(rep.visits, res.batches[b].visits);
    // And bit-identical outcomes, query by query.
    std::vector<Query> warm_batch;
    for (const auto idx : slices[b]) warm_batch.push_back(warm_stream[idx]);
    EXPECT_EQ(diff_outcomes(outcomes(batch), outcomes(warm_batch)), "");
  }
}

TEST(StreamWarm, SecondStreamOnWarmEngineChargesNoSetup) {
  const Alg2Fixture fx;
  auto first = fx.stream(2 * fx.shape.size());
  auto second = fx.stream(2 * fx.shape.size(), 29);
  const mesh::CostModel m;
  PreparedSearch engine(EngineKind::kAlg2Alpha, fx.tree.graph(),
                        fx.tree.alpha_splitting(), fx.tree.alpha_splitting(),
                        fx.tree.rank_count(), m, fx.shape);
  StreamScheduler sched(engine, BatchPolicy{});
  const auto r1 = sched.run(first);
  EXPECT_EQ(r1.setup.steps, engine.setup_cost().steps);
  const auto r2 = sched.run(second);
  EXPECT_EQ(r2.setup.steps, 0.0);  // engine already warm: nothing attributed
  auto expect = second;
  sequential_multisearch(fx.tree.graph(), fx.tree.rank_count(), expect);
  EXPECT_EQ(diff_outcomes(outcomes(second), outcomes(expect)), "");
}

TEST(StreamWarm, SetupCostMatchesStandalonePieces) {
  const Alg1Fixture fx;
  const mesh::CostModel m;
  PreparedSearch engine(fx.dag, PlanKind::kPaper, ds::HashWalk{0}, m,
                        fx.shape);
  const mesh::Cost graph_cost = distribute_graph(fx.g, m, fx.shape);
  const auto li = compute_level_indices(fx.g, m, fx.shape);
  const mesh::Cost bands = band_setup_cost(engine.plan(), fx.shape, m);
  EXPECT_EQ(engine.setup_cost().steps,
            (graph_cost + li.cost + bands).steps);
}

TEST(StreamWarm, Alg1RunWithoutBandSetupIsCheaperByExactlyThatSetup) {
  // Geometric plan: at this size it has several bands (the paper's log*
  // plan needs a far taller DAG before its first band appears).
  const Alg1Fixture fx;
  const mesh::CostModel m;
  auto qs_full = fx.stream(fx.g.vertex_count());
  auto qs_warm = qs_full;
  const auto full = hierarchical_multisearch(fx.dag, ds::HashWalk{0}, qs_full,
                                             m, fx.shape, PlanKind::kGeometric);
  const auto plan =
      make_hierarchical_plan(fx.dag, fx.shape, PlanKind::kGeometric);
  const auto warm = msearch::detail::hierarchical_core(
      fx.dag, plan, ds::HashWalk{0}, qs_warm, m, fx.shape, "alg1-geometric",
      /*charge_band_setup=*/false);
  EXPECT_EQ(diff_outcomes(outcomes(qs_full), outcomes(qs_warm)), "");
  const mesh::Cost bands = band_setup_cost(plan, fx.shape, m);
  EXPECT_GT(bands.steps, 0.0);
  // Same terms, different accumulation order -> compare to relative eps.
  EXPECT_NEAR(full.cost.steps, warm.cost.steps + bands.steps,
              1e-9 * full.cost.steps);
}

// ---------------------------------------------------------------------------
// One core behind two entry points: PreparedSearch::run_batch and the public
// one-shot front doors (multisearch_partitioned, hierarchical_multisearch)
// run the same core, so on the same batch they agree bit for bit — outcomes,
// charges, visits, Gamma copies and per-primitive attribution.
// ---------------------------------------------------------------------------

/// What one batch produced through one entry point.
struct EntryRecord {
  std::vector<QueryOutcome> out;
  mesh::Cost inject, run;
  std::size_t visits = 0;
  std::size_t copies = 0;
  std::map<trace::PrimitiveKey, trace::PrimitiveStat> counters;
};

/// Serve `batch` on a warm engine prepared over `m`, attributing only the
/// batch (the construction-time setup is not in the recorder).
template <SearchProgram P>
EntryRecord via_run_batch(PreparedSearch<P>& engine, mesh::CostModel& m,
                          std::vector<Query> batch) {
  trace::TraceRecorder rec;
  m.trace = &rec;
  const BatchReport rep = engine.run_batch(batch);
  m.trace = nullptr;
  return {outcomes(batch), rep.inject, rep.run, rep.visits, rep.copies,
          rec.counters()};
}

/// Serve `batch` through a one-shot front door: inject_queries, then `run`,
/// which fills the run charge, visits and copies of the record.
template <typename Run>
EntryRecord via_front_door(mesh::MeshShape shape, std::vector<Query> batch,
                           Run run) {
  trace::TraceRecorder rec;
  mesh::CostModel m;
  m.trace = &rec;
  EntryRecord r;
  r.inject = inject_queries(batch.size(), m, shape);
  run(batch, m, r);
  r.out = outcomes(batch);
  r.counters = rec.counters();
  return r;
}

void expect_same_entry(const EntryRecord& warm, const EntryRecord& front) {
  EXPECT_EQ(diff_outcomes(warm.out, front.out), "");
  EXPECT_EQ(warm.inject, front.inject);  // exact, not approximate
  EXPECT_EQ(warm.run, front.run);
  EXPECT_EQ(warm.visits, front.visits);
  EXPECT_EQ(warm.copies, front.copies);
  EXPECT_TRUE(warm.counters == front.counters)
      << "per-primitive attribution diverged";
  EXPECT_GT(front.visits, 0u);
}

TEST(StreamCore, RunBatchEqualsFrontDoorAlg1BothPlans) {
  const Alg1Fixture fx;
  const std::size_t cap = fx.shape.size();
  const auto stream = fx.stream(2 * cap);
  const std::vector<Query> first(stream.begin(), stream.begin() + cap);
  const std::vector<Query> second(stream.begin() + cap, stream.end());
  for (const PlanKind plan : {PlanKind::kPaper, PlanKind::kGeometric}) {
    mesh::CostModel m;
    PreparedSearch engine(fx.dag, plan, ds::HashWalk{0}, m, fx.shape);
    for (const auto* batch : {&first, &second}) {
      const EntryRecord warm = via_run_batch(engine, m, *batch);
      const EntryRecord front = via_front_door(
          fx.shape, *batch,
          [&](std::vector<Query>& qs, const mesh::CostModel& fm,
              EntryRecord& r) {
            const auto res = msearch::detail::hierarchical_core(
                fx.dag, make_hierarchical_plan(fx.dag, fx.shape, plan),
                ds::HashWalk{0}, qs, fm, fx.shape,
                plan == PlanKind::kPaper ? "alg1-paper" : "alg1-geometric",
                /*charge_band_setup=*/false);
            r.run = res.cost;
            r.visits = res.total_visits;
          });
      expect_same_entry(warm, front);
    }
  }
}

TEST(StreamCore, RunBatchEqualsFrontDoorAlg2Alpha) {
  const Alg2Fixture fx;
  const Splitting psi = fx.tree.alpha_splitting();
  mesh::CostModel m;
  PreparedSearch engine(EngineKind::kAlg2Alpha, fx.tree.graph(), psi, psi,
                        fx.tree.rank_count(), m, fx.shape);
  for (const std::uint64_t seed : {31u, 32u}) {
    const auto batch = fx.stream(fx.shape.size(), seed);
    const EntryRecord warm = via_run_batch(engine, m, batch);
    const EntryRecord front = via_front_door(
        fx.shape, batch,
        [&](std::vector<Query>& qs, const mesh::CostModel& fm,
            EntryRecord& r) {
          const auto res = multisearch_partitioned(
              fx.tree.graph(), psi, psi, fx.tree.rank_count(), qs, fm,
              fx.shape);
          r.run = res.cost;
          r.visits = res.total_visits;
          r.copies = res.copies;
        });
    expect_same_entry(warm, front);
    EXPECT_GT(front.copies, 0u);
  }
}

TEST(StreamCore, RunBatchEqualsFrontDoorAlg3AlphaBeta) {
  const Alg3Fixture fx;
  mesh::CostModel m;
  PreparedSearch engine(EngineKind::kAlg3AlphaBeta, fx.tree.graph(), fx.s1,
                        fx.s2, fx.tree.euler_scan(), m, fx.shape);
  for (const std::uint64_t seed : {33u, 34u}) {
    const auto batch = fx.stream(fx.shape.size(), seed);
    const EntryRecord warm = via_run_batch(engine, m, batch);
    const EntryRecord front = via_front_door(
        fx.shape, batch,
        [&](std::vector<Query>& qs, const mesh::CostModel& fm,
            EntryRecord& r) {
          const auto res = multisearch_partitioned(
              fx.tree.graph(), fx.s1, fx.s2, fx.tree.euler_scan(), qs, fm,
              fx.shape);
          r.run = res.cost;
          r.visits = res.total_visits;
          r.copies = res.copies;
        });
    expect_same_entry(warm, front);
    EXPECT_GT(front.copies, 0u);
  }
}

// ---------------------------------------------------------------------------
// The naive re-setup-every-batch baseline loses at m/n >= 4 (all engines).
// ---------------------------------------------------------------------------

template <typename MakeEngine>
void expect_warm_beats_resetup(const std::vector<Query>& stream0,
                               MakeEngine make_engine) {
  auto warm_stream = stream0;
  auto warm_engine = make_engine();
  StreamScheduler warm(warm_engine, BatchPolicy{});
  const auto warm_res = warm.run(warm_stream);

  auto naive_stream = stream0;
  auto naive_engine = make_engine();
  StreamScheduler naive(naive_engine, BatchPolicy{},
                        /*resetup_every_batch=*/true);
  const auto naive_res = naive.run(naive_stream);

  EXPECT_EQ(diff_outcomes(outcomes(warm_stream), outcomes(naive_stream)), "");
  EXPECT_LT(warm_res.amortized_steps_per_query(),
            naive_res.amortized_steps_per_query());
  EXPECT_LT(warm_res.setup_fraction(), naive_res.setup_fraction());
}

TEST(StreamBaseline, WarmBeatsResetupAlg1Paper) {
  const Alg1Fixture fx;
  const mesh::CostModel m;
  expect_warm_beats_resetup(fx.stream(4 * fx.shape.size()), [&] {
    return PreparedSearch(fx.dag, PlanKind::kPaper, ds::HashWalk{0}, m,
                          fx.shape);
  });
}

TEST(StreamBaseline, WarmBeatsResetupAlg1Geometric) {
  const Alg1Fixture fx;
  const mesh::CostModel m;
  expect_warm_beats_resetup(fx.stream(4 * fx.shape.size()), [&] {
    return PreparedSearch(fx.dag, PlanKind::kGeometric, ds::HashWalk{0}, m,
                          fx.shape);
  });
}

TEST(StreamBaseline, WarmBeatsResetupAlg2Alpha) {
  const Alg2Fixture fx;
  const mesh::CostModel m;
  expect_warm_beats_resetup(fx.stream(4 * fx.shape.size()), [&] {
    return PreparedSearch(EngineKind::kAlg2Alpha, fx.tree.graph(),
                          fx.tree.alpha_splitting(), fx.tree.alpha_splitting(),
                          fx.tree.rank_count(), m, fx.shape);
  });
}

TEST(StreamBaseline, WarmBeatsResetupAlg3AlphaBeta) {
  const Alg3Fixture fx;
  const mesh::CostModel m;
  expect_warm_beats_resetup(fx.stream(4 * fx.shape.size()), [&] {
    return PreparedSearch(EngineKind::kAlg3AlphaBeta, fx.tree.graph(), fx.s1,
                          fx.s2, fx.tree.euler_scan(), m, fx.shape);
  });
}

// ---------------------------------------------------------------------------
// Batch planning properties.
// ---------------------------------------------------------------------------

TEST(StreamPolicy, PlanBatchesCoversEveryIndexExactlyOnce) {
  const Alg1Fixture fx;
  const auto stream = fx.stream(1000);
  for (const auto order : {BatchOrder::kFifo, BatchOrder::kLocalityReorder}) {
    BatchPolicy policy;
    policy.order = order;
    const auto batches = plan_batches(stream, policy, 96);
    std::vector<std::uint8_t> seen(stream.size(), 0);
    for (const auto& b : batches) {
      EXPECT_FALSE(b.empty());
      EXPECT_LE(b.size(), 96u);
      for (const auto idx : b) {
        ASSERT_LT(idx, stream.size());
        EXPECT_EQ(seen[idx], 0);
        seen[idx] = 1;
      }
    }
    EXPECT_EQ(std::count(seen.begin(), seen.end(), 1),
              static_cast<std::ptrdiff_t>(stream.size()));
  }
}

TEST(StreamPolicy, LocalityReorderSortsEachWindowByKey) {
  const Alg1Fixture fx;
  const auto stream = fx.stream(777);
  BatchPolicy policy;
  policy.order = BatchOrder::kLocalityReorder;
  // Capacity 64: the window is 4 batches, 256 queries.
  const auto batches = plan_batches(stream, policy, 64);
  // Flatten back: within every 256-index window the keys ascend.
  std::vector<std::uint32_t> flat;
  for (const auto& b : batches) flat.insert(flat.end(), b.begin(), b.end());
  ASSERT_EQ(flat.size(), stream.size());
  for (std::size_t i = 1; i < flat.size(); ++i) {
    if (i % 256 == 0) continue;  // window boundary
    EXPECT_LE(stream[flat[i - 1]].key[0], stream[flat[i]].key[0]);
  }
}

// Regression: the window reorder once used an unstable std::sort, so with
// heavily duplicated locality keys the schedule depended on introsort
// internals instead of being a pure function of the stream. Ties must keep
// arrival order.
TEST(StreamPolicy, LocalityReorderKeepsArrivalOrderOnDuplicateKeys) {
  auto stream = make_queries(512);
  util::Rng rng(77);
  for (auto& q : stream) {
    q.key[0] = rng.uniform_range(0, 2);  // 3 distinct keys: huge tie groups
    q.key[1] = rng.uniform_range(0, 1);
    q.key[2] = 0;
  }
  BatchPolicy policy;
  policy.order = BatchOrder::kLocalityReorder;
  const auto batches = plan_batches(stream, policy, 64);  // 256-query window
  std::vector<std::uint32_t> flat;
  for (const auto& b : batches) flat.insert(flat.end(), b.begin(), b.end());
  ASSERT_EQ(flat.size(), stream.size());
  for (std::size_t i = 1; i < flat.size(); ++i) {
    if (i % 256 == 0) continue;  // window boundary
    const Query& qa = stream[flat[i - 1]];
    const Query& qb = stream[flat[i]];
    const auto ka = std::tie(qa.key[0], qa.key[1], qa.key[2]);
    const auto kb = std::tie(qb.key[0], qb.key[1], qb.key[2]);
    EXPECT_TRUE(ka < kb || (ka == kb && flat[i - 1] < flat[i]))
        << "duplicate keys broke arrival order at position " << i;
  }
}

TEST(StreamPolicy, EmptyStreamYieldsNoBatchesAndZeroCost) {
  const Alg2Fixture fx;
  const mesh::CostModel m;
  PreparedSearch engine(EngineKind::kAlg2Alpha, fx.tree.graph(),
                        fx.tree.alpha_splitting(), fx.tree.alpha_splitting(),
                        fx.tree.rank_count(), m, fx.shape);
  StreamScheduler sched(engine, BatchPolicy{});
  std::vector<Query> empty;
  const auto res = sched.run(empty);
  EXPECT_TRUE(res.batches.empty());
  EXPECT_EQ(res.total().steps, 0.0);
  EXPECT_EQ(res.amortized_steps_per_query(), 0.0);
}

// ---------------------------------------------------------------------------
// Trace metrics and attribution.
// ---------------------------------------------------------------------------

TEST(StreamMetrics, ThroughputMetricsRecordedAndVisibleInTable) {
  const Alg1Fixture fx;
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.trace = &rec;
  PreparedSearch engine(fx.dag, PlanKind::kPaper, ds::HashWalk{0}, m,
                        fx.shape);
  auto stream = fx.stream(4 * fx.shape.size());
  StreamScheduler sched(engine, BatchPolicy{});
  const auto res = sched.run(stream);

  std::map<std::string, double> metrics;
  for (const auto& mt : rec.stats().snapshot().gauges)
    metrics[mt.name] = mt.value;
  ASSERT_EQ(metrics.count("stream.queries_per_step"), 1u);
  ASSERT_EQ(metrics.count("stream.amortized_steps_per_query"), 1u);
  ASSERT_EQ(metrics.count("stream.setup_fraction"), 1u);
  EXPECT_EQ(metrics["stream.batches"], 4.0);
  EXPECT_EQ(metrics["stream.queries"], static_cast<double>(stream.size()));
  EXPECT_GT(metrics["stream.setup_fraction"], 0.0);
  EXPECT_LT(metrics["stream.setup_fraction"], 1.0);
  EXPECT_EQ(metrics["stream.amortized_steps_per_query"],
            res.amortized_steps_per_query());

  // The amortized-setup fraction is visible in the attribution table.
  std::ostringstream os;
  trace::metrics_table(rec).print(os);
  EXPECT_NE(os.str().find("metric:stream.setup_fraction"), std::string::npos);
}

TEST(StreamMetrics, AttributionSumsToSetupPlusStreamTotal) {
  const Alg3Fixture fx;
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.trace = &rec;
  PreparedSearch engine(EngineKind::kAlg3AlphaBeta, fx.tree.graph(), fx.s1,
                        fx.s2, fx.tree.euler_scan(), m, fx.shape);
  auto stream = fx.stream(2 * fx.shape.size() + 100);
  StreamScheduler sched(engine, BatchPolicy{});
  const auto res = sched.run(stream);
  // Everything charged through the model — construction-time setup plus all
  // per-batch work — is attributed, and nothing else is.
  double attributed = 0.0;
  for (const auto& [key, stat] : rec.counters()) attributed += stat.steps;
  EXPECT_NEAR(attributed, rec.total_steps(), 1e-6);
  EXPECT_NEAR(rec.total_steps(), res.total().steps, 1e-6);
}

TEST(StreamMetrics, PerBatchSpanTreeRecorded) {
  const Alg2Fixture fx;
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.trace = &rec;
  PreparedSearch engine(EngineKind::kAlg2Alpha, fx.tree.graph(),
                        fx.tree.alpha_splitting(), fx.tree.alpha_splitting(),
                        fx.tree.rank_count(), m, fx.shape);
  auto stream = fx.stream(3 * fx.shape.size());
  StreamScheduler sched(engine, BatchPolicy{});
  const auto res = sched.run(stream);
  std::size_t prepare = 0, batch_spans = 0;
  double span_us = 0;
  for (const auto& s : rec.spans()) {
    if (s.name == "stream.prepare") ++prepare;
    if (s.name.rfind("stream.batch ", 0) == 0) {
      ++batch_spans;
      span_us += s.wall_end_us - s.wall_begin_us;
    }
  }
  EXPECT_EQ(prepare, 1u);      // warm: one setup span, at construction
  EXPECT_EQ(batch_spans, 3u);  // one span per batch
  // BatchReport::wall_us times the run_slice attempt inside each batch span:
  // positive, and at most the spans' wall time in total.
  double report_us = 0;
  for (const auto& b : res.batches) {
    EXPECT_GT(b.wall_us, 0.0);
    report_us += b.wall_us;
  }
  EXPECT_LE(report_us, span_us);
}

// ---------------------------------------------------------------------------
// (d) 1-vs-8-thread determinism contract for StreamScheduler.
// ---------------------------------------------------------------------------

struct RunRecord {
  std::vector<QueryOutcome> out;
  mesh::Cost cost;
  std::map<trace::PrimitiveKey, trace::PrimitiveStat> counters;
};

template <typename F>
void expect_thread_invariant(F f) {
  util::ThreadPool::set_global_threads(1);
  const RunRecord serial = f();
  util::ThreadPool::set_global_threads(8);
  const RunRecord parallel = f();
  util::ThreadPool::set_global_threads(0);
  EXPECT_EQ(diff_outcomes(serial.out, parallel.out), "");
  EXPECT_EQ(serial.cost, parallel.cost);  // exact, not approximate
  EXPECT_TRUE(serial.counters == parallel.counters)
      << "per-primitive attribution diverged across thread counts";
}

TEST(StreamDeterminism, Alg1PaperSchedulerThreadInvariant) {
  const Alg1Fixture fx;
  const auto stream0 = fx.stream(3 * fx.shape.size() + 64);
  expect_thread_invariant([&] {
    trace::TraceRecorder rec("counting");
    mesh::CostModel m;
    m.trace = &rec;
    PreparedSearch engine(fx.dag, PlanKind::kPaper, ds::HashWalk{0}, m,
                          fx.shape);
    auto stream = stream0;
    StreamScheduler sched(engine, BatchPolicy{});
    const auto res = sched.run(stream);
    return RunRecord{outcomes(stream), res.total(), rec.counters()};
  });
}

TEST(StreamDeterminism, Alg1GeometricSchedulerThreadInvariant) {
  const Alg1Fixture fx;
  const auto stream0 = fx.stream(3 * fx.shape.size() + 64);
  expect_thread_invariant([&] {
    trace::TraceRecorder rec("counting");
    mesh::CostModel m;
    m.trace = &rec;
    PreparedSearch engine(fx.dag, PlanKind::kGeometric, ds::HashWalk{0}, m,
                          fx.shape);
    auto stream = stream0;
    StreamScheduler sched(engine, BatchPolicy{});
    const auto res = sched.run(stream);
    return RunRecord{outcomes(stream), res.total(), rec.counters()};
  });
}

TEST(StreamDeterminism, Alg2SchedulerThreadInvariant) {
  const Alg2Fixture fx;
  const auto stream0 = fx.stream(3 * fx.shape.size() + 32);
  expect_thread_invariant([&] {
    trace::TraceRecorder rec("counting");
    mesh::CostModel m;
    m.trace = &rec;
    PreparedSearch engine(EngineKind::kAlg2Alpha, fx.tree.graph(),
                          fx.tree.alpha_splitting(), fx.tree.alpha_splitting(),
                          fx.tree.rank_count(), m, fx.shape);
    auto stream = stream0;
    BatchPolicy policy;
    policy.order = BatchOrder::kLocalityReorder;
    StreamScheduler sched(engine, policy);
    const auto res = sched.run(stream);
    return RunRecord{outcomes(stream), res.total(), rec.counters()};
  });
}

TEST(StreamDeterminism, Alg3SchedulerThreadInvariant) {
  const Alg3Fixture fx;
  const auto stream0 = fx.stream(3 * fx.shape.size() + 32);
  expect_thread_invariant([&] {
    trace::TraceRecorder rec("counting");
    mesh::CostModel m;
    m.trace = &rec;
    PreparedSearch engine(EngineKind::kAlg3AlphaBeta, fx.tree.graph(), fx.s1,
                          fx.s2, fx.tree.euler_scan(), m, fx.shape);
    auto stream = stream0;
    StreamScheduler sched(engine, BatchPolicy{});
    const auto res = sched.run(stream);
    return RunRecord{outcomes(stream), res.total(), rec.counters()};
  });
}

TEST(StreamFaultFree, DisarmedPlanLeavesSchedulerBitIdentical) {
  // Fault-free contract: attaching a disarmed FaultPlan to the scheduler's
  // cost model changes nothing — same batches, costs, attribution, and an
  // empty failed_queries list.
  const Alg2Fixture fx;
  const auto stream0 = fx.stream(3 * fx.shape.size() + 27);
  mesh::FaultPlan disarmed;
  auto run_with = [&](mesh::FaultPlan* plan) {
    trace::TraceRecorder rec("counting");
    mesh::CostModel m;
    m.trace = &rec;
    m.fault = plan;
    PreparedSearch engine(EngineKind::kAlg2Alpha, fx.tree.graph(),
                          fx.tree.alpha_splitting(), fx.tree.alpha_splitting(),
                          fx.tree.rank_count(), m, fx.shape);
    auto stream = stream0;
    StreamScheduler sched(engine, BatchPolicy{});
    const auto res = sched.run(stream);
    return std::tuple{outcomes(stream), res.total(), rec.counters(),
                      res.failed_queries.size(), res.batches.size()};
  };
  const auto bare = run_with(nullptr);
  const auto with = run_with(&disarmed);
  EXPECT_EQ(diff_outcomes(std::get<0>(bare), std::get<0>(with)), "");
  EXPECT_EQ(std::get<1>(bare), std::get<1>(with));
  EXPECT_TRUE(std::get<2>(bare) == std::get<2>(with));
  EXPECT_EQ(std::get<3>(with), 0u);
  EXPECT_EQ(std::get<4>(bare), std::get<4>(with));
  EXPECT_EQ(disarmed.stats().detections, 0u);
}

// ---------------------------------------------------------------------------
// Edge cases / contract checks.
// ---------------------------------------------------------------------------

TEST(StreamEdge, OversizedBatchThrows) {
  const Alg1Fixture fx;
  const mesh::CostModel m;
  PreparedSearch engine(fx.dag, PlanKind::kPaper, ds::HashWalk{0}, m,
                        fx.shape);
  auto batch = fx.stream(fx.shape.size() + 1);
  EXPECT_THROW(engine.run_batch(batch), std::logic_error);
}

TEST(StreamEdge, PartitionedPreparedSearchRejectsAlg1Kind) {
  const Alg2Fixture fx;
  const mesh::CostModel m;
  EXPECT_THROW(PreparedSearch(EngineKind::kAlg1Paper, fx.tree.graph(),
                              fx.tree.alpha_splitting(),
                              fx.tree.alpha_splitting(), fx.tree.rank_count(),
                              m, fx.shape),
               std::logic_error);
}

// ---------------------------------------------------------------------------
// plan_batches edge contracts: each formerly-implicit behavior is now
// defined and pinned (empty stream, capacity-sized batches, zero capacity),
// for both batch orders.
// ---------------------------------------------------------------------------

TEST(StreamEdge, PlanBatchesEmptyStreamYieldsNoBatches) {
  for (const auto order : {BatchOrder::kFifo, BatchOrder::kLocalityReorder}) {
    BatchPolicy policy;
    policy.order = order;
    EXPECT_TRUE(plan_batches({}, policy, 64).empty());
    const BatchSource src({}, policy, 64);
    EXPECT_TRUE(src.empty());
    EXPECT_EQ(src.pending_queries(), 0u);
  }
}

TEST(StreamEdge, PlanBatchesAreCapacitySized) {
  const Alg1Fixture fx;
  const auto stream = fx.stream(3 * 50 + 7);
  for (const auto order : {BatchOrder::kFifo, BatchOrder::kLocalityReorder}) {
    BatchPolicy policy;
    policy.order = order;
    const auto batches = plan_batches(stream, policy, 50);
    ASSERT_EQ(batches.size(), 4u);
    for (std::size_t i = 0; i + 1 < batches.size(); ++i)
      EXPECT_EQ(batches[i].size(), 50u);  // full capacity, not some default
    EXPECT_EQ(batches.back().size(), 7u);
  }
}

TEST(StreamEdge, PlanBatchesZeroCapacityIsInvalidInput) {
  const Alg1Fixture fx;
  const auto stream = fx.stream(8);
  EXPECT_THROW(plan_batches(stream, BatchPolicy{}, 0), InvalidInputError);
  // Even an empty stream: a zero-processor mesh is malformed, not idle.
  EXPECT_THROW(plan_batches({}, BatchPolicy{}, 0), InvalidInputError);
}

// ---------------------------------------------------------------------------
// BatchSource queue properties: the slicing/requeue machinery the service
// scheduler shares with StreamScheduler.
// ---------------------------------------------------------------------------

TEST(StreamQueue, PopUptoSplitsAndCoalescesWithinAGeneration) {
  BatchSource src;
  src.enqueue({0, 1, 2, 3, 4});
  src.enqueue({5, 6});
  src.enqueue({});  // no-op
  EXPECT_EQ(src.pending_batches(), 2u);
  EXPECT_EQ(src.pending_queries(), 7u);

  // Split: a 3-slice leaves the front batch's tail in place.
  const auto first = src.pop_upto(3);
  EXPECT_EQ(first.indices, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(first.replans, 0u);
  EXPECT_EQ(src.pending_queries(), 4u);
  // Coalesce: the next slice spans the remaining tail AND the next batch,
  // because both are generation 0.
  const auto rest = src.pop_upto(10);
  EXPECT_EQ(rest.indices, (std::vector<std::uint32_t>{3, 4, 5, 6}));
  EXPECT_TRUE(src.empty());
  EXPECT_EQ(src.pending_queries(), 0u);
}

TEST(StreamQueue, PopUptoNeverCoalescesAcrossGenerations) {
  BatchSource src;
  PendingBatch failed;
  failed.indices = {10, 11, 12};
  failed.replans = 1;
  src.requeue_split_front(failed, 8);  // one piece at generation 2
  src.enqueue({20, 21});               // fresh arrival at generation 0
  // A wide slice stops at the generation boundary: mixing would let the
  // fresh batch inherit the retried batch's shrunken retry budget.
  const auto gen2 = src.pop_upto(100);
  EXPECT_EQ(gen2.replans, 2u);
  EXPECT_EQ(gen2.indices, (std::vector<std::uint32_t>{10, 11, 12}));
  const auto gen0 = src.pop_upto(100);
  EXPECT_EQ(gen0.replans, 0u);
  EXPECT_EQ(gen0.indices, (std::vector<std::uint32_t>{20, 21}));
}

TEST(StreamQueue, RequeueSplitFrontPreservesOrderAndBumpsGeneration) {
  BatchSource src;
  src.enqueue({50, 51});
  PendingBatch failed;
  failed.indices = {0, 1, 2, 3, 4};
  failed.replans = 0;
  src.requeue_split_front(failed, 2);  // pieces {0,1} {2,3} {4} go FIRST
  EXPECT_EQ(src.pending_queries(), 7u);
  EXPECT_EQ(src.front_replans(), 1u);
  const auto a = src.pop();
  const auto b = src.pop();
  const auto c = src.pop();
  const auto d = src.pop();
  EXPECT_EQ(a.indices, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(b.indices, (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(c.indices, (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(a.replans, 1u);
  EXPECT_EQ(c.replans, 1u);
  EXPECT_EQ(d.indices, (std::vector<std::uint32_t>{50, 51}));  // not overtaken
  EXPECT_EQ(d.replans, 0u);
  EXPECT_TRUE(src.empty());
}

TEST(StreamQueue, RequeueSplitBackAppendsAfterPendingWork) {
  BatchSource src;
  src.enqueue({50, 51});
  PendingBatch failed;
  failed.indices = {0, 1, 2};
  failed.replans = 2;
  src.requeue_split_back(failed, 2);
  EXPECT_EQ(src.front_replans(), 0u);
  EXPECT_EQ(src.pop().indices, (std::vector<std::uint32_t>{50, 51}));
  const auto p1 = src.pop();
  const auto p2 = src.pop();
  EXPECT_EQ(p1.indices, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(p2.indices, (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(p1.replans, 3u);
  EXPECT_EQ(p2.replans, 3u);
  EXPECT_TRUE(src.empty());
}

// ---------------------------------------------------------------------------
// run_slice: the one slice executor behind StreamScheduler and the service
// scheduler. A scripted engine drives each outcome; one real engine checks
// the re-slice capacity under a plan where every phase fails.
// ---------------------------------------------------------------------------

/// Answers every query of a batch (result = 1000 + qid), then throws if
/// scripted to. It fills part of its report before throwing, so a report
/// leaking out of a failed attempt would show.
struct ScriptedEngine {
  enum class Fail { kNone, kFaultExhausted, kStale };
  std::size_t cap = 64;
  Fail fail = Fail::kNone;

  std::size_t capacity() const { return cap; }
  BatchReport run_batch(std::vector<Query>& batch) {
    BatchReport rep;
    rep.size = batch.size();
    rep.inject = mesh::Cost(7);
    for (auto& q : batch) {
      q.result = 1000 + q.qid;
      ++q.steps;
    }
    if (fail == Fail::kFaultExhausted)
      throw mesh::FaultExhaustedError("scripted");
    if (fail == Fail::kStale) throw StaleEngineError("scripted", 2, 1);
    rep.run = mesh::Cost(11);
    return rep;
  }
};

mesh::FaultConfig failing_config() {
  mesh::FaultConfig cfg;
  cfg.seed = 5;
  cfg.p_phase = 1.0;
  return cfg;
}

PendingBatch slice_of(std::vector<std::uint32_t> indices,
                      std::uint32_t replans = 0) {
  PendingBatch b;
  b.indices = std::move(indices);
  b.replans = replans;
  return b;
}

TEST(StreamSlice, DoneWritesTheSliceBack) {
  ScriptedEngine engine;
  auto stream = make_queries(10);
  const auto before = outcomes(stream);
  std::vector<Query> scratch;
  const SliceAttempt a =
      run_slice(engine, nullptr, stream, slice_of({2, 5, 7}), scratch);
  EXPECT_EQ(a.outcome, SliceOutcome::kDone);
  EXPECT_EQ(a.report.size, 3u);
  EXPECT_EQ(a.report.inject.steps, 7.0);
  EXPECT_EQ(a.report.run.steps, 11.0);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const bool in_slice = i == 2 || i == 5 || i == 7;
    EXPECT_EQ(stream[i].result,
              in_slice ? 1000 + static_cast<std::int32_t>(i)
                       : before[i].result)
        << "position " << i;
  }
}

TEST(StreamSlice, ResliceLeavesTheCheckpointAndUsesSurvivingCapacity) {
  ScriptedEngine engine;
  engine.fail = ScriptedEngine::Fail::kFaultExhausted;
  mesh::FaultPlan plan(failing_config());
  auto stream = make_queries(10);
  const auto checkpoint = outcomes(stream);
  std::vector<Query> scratch;
  const SliceAttempt a =
      run_slice(engine, &plan, stream, slice_of({0, 1, 2, 3}), scratch);
  EXPECT_EQ(a.outcome, SliceOutcome::kReslice);
  EXPECT_EQ(diff_outcomes(outcomes(stream), checkpoint), "");
  EXPECT_EQ(a.capacity, plan.effective_capacity(engine.capacity()));
  EXPECT_EQ(a.capacity, engine.capacity() / 2);  // one degrade at 0.5
  EXPECT_EQ(a.report.inject.steps, 0.0);  // nothing of the failed attempt
  EXPECT_EQ(plan.stats().replanned_batches, 1u);
  EXPECT_EQ(plan.stats().degraded_batches, 0u);
}

TEST(StreamSlice, AtMaxReplansReportsDegraded) {
  ScriptedEngine engine;
  engine.fail = ScriptedEngine::Fail::kFaultExhausted;
  mesh::FaultPlan plan(failing_config());
  const auto max_replans =
      static_cast<std::uint32_t>(plan.config().max_replans);
  auto stream = make_queries(10);
  const auto checkpoint = outcomes(stream);
  std::vector<Query> scratch;
  const SliceAttempt a = run_slice(engine, &plan, stream,
                                   slice_of({4, 5}, max_replans), scratch);
  EXPECT_EQ(a.outcome, SliceOutcome::kDegraded);
  EXPECT_EQ(diff_outcomes(outcomes(stream), checkpoint), "");
  EXPECT_EQ(a.report.inject.steps, 0.0);
  EXPECT_EQ(plan.stats().degraded_batches, 1u);
  EXPECT_EQ(plan.stats().replanned_batches, 0u);
  EXPECT_LT(plan.stats().capacity_factor, 1.0);  // degraded all the same
}

TEST(StreamSlice, FaultExhaustedWithoutAPlanPropagates) {
  ScriptedEngine engine;
  engine.fail = ScriptedEngine::Fail::kFaultExhausted;
  auto stream = make_queries(10);
  const auto checkpoint = outcomes(stream);
  std::vector<Query> scratch;
  EXPECT_THROW(run_slice(engine, nullptr, stream, slice_of({1, 2}), scratch),
               mesh::FaultExhaustedError);
  EXPECT_EQ(diff_outcomes(outcomes(stream), checkpoint), "");
}

TEST(StreamSlice, OtherErrorsPropagateAndLeaveTheStreamUntouched) {
  ScriptedEngine engine;
  engine.fail = ScriptedEngine::Fail::kStale;
  mesh::FaultPlan plan(failing_config());
  auto stream = make_queries(10);
  const auto checkpoint = outcomes(stream);
  std::vector<Query> scratch;
  EXPECT_THROW(run_slice(engine, &plan, stream, slice_of({1, 2}), scratch),
               StaleEngineError);
  EXPECT_EQ(diff_outcomes(outcomes(stream), checkpoint), "");
  // Not a fault: the plan is neither degraded nor counted.
  EXPECT_EQ(plan.stats().capacity_factor, 1.0);
  EXPECT_EQ(plan.stats().replanned_batches, 0u);
  EXPECT_EQ(plan.stats().degraded_batches, 0u);
}

TEST(StreamSlice, PermutedSliceWiderThanTheFixedChunksWritesEachPositionBack) {
  // More slice positions than util::kFixedChunks, in a shuffled order, on a
  // 4-thread pool: the write-back runs as a parallel scatter, and every
  // position must receive its own query's result.
  util::ThreadPool::set_global_threads(4);
  ScriptedEngine engine;
  engine.cap = 8192;
  const std::size_t n = 6000;
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = i;
  util::Rng rng(41);
  for (std::size_t i = n - 1; i > 0; --i)
    std::swap(order[i], order[rng.uniform(i + 1)]);
  order.resize(4500);
  std::vector<bool> in_slice(n, false);
  for (const auto i : order) in_slice[i] = true;

  auto stream = make_queries(n);
  const auto before = outcomes(stream);
  std::vector<Query> scratch;
  const SliceAttempt a =
      run_slice(engine, nullptr, stream, slice_of(order), scratch);
  EXPECT_EQ(a.outcome, SliceOutcome::kDone);
  EXPECT_EQ(a.report.size, order.size());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(stream[i].qid, static_cast<std::int32_t>(i)) << "position " << i;
    EXPECT_EQ(stream[i].result,
              in_slice[i] ? 1000 + static_cast<std::int32_t>(i)
                          : before[i].result)
        << "position " << i;
    EXPECT_EQ(stream[i].steps, before[i].steps + (in_slice[i] ? 1 : 0))
        << "position " << i;
  }

  // A throwing engine leaves the stream at its checkpoint, re-sliced or
  // propagated alike.
  const auto checkpoint = outcomes(stream);
  mesh::FaultPlan plan(failing_config());
  engine.fail = ScriptedEngine::Fail::kFaultExhausted;
  EXPECT_EQ(run_slice(engine, &plan, stream, slice_of(order), scratch).outcome,
            SliceOutcome::kReslice);
  EXPECT_EQ(diff_outcomes(outcomes(stream), checkpoint), "");
  engine.fail = ScriptedEngine::Fail::kStale;
  EXPECT_THROW(run_slice(engine, &plan, stream, slice_of(order), scratch),
               StaleEngineError);
  EXPECT_EQ(diff_outcomes(outcomes(stream), checkpoint), "");
  util::ThreadPool::set_global_threads(0);
}

TEST(StreamSlice, RealEngineResliceCapacityIsTheSurvivingCapacity) {
  const Alg2Fixture fx;
  mesh::FaultPlan plan(failing_config());
  mesh::CostModel m;
  m.fault = &plan;
  PreparedSearch engine(EngineKind::kAlg2Alpha, fx.tree.graph(),
                        fx.tree.alpha_splitting(), fx.tree.alpha_splitting(),
                        fx.tree.rank_count(), m, fx.shape);
  auto stream = fx.stream(16);
  const auto checkpoint = outcomes(stream);
  std::vector<std::uint32_t> all(stream.size());
  for (std::uint32_t i = 0; i < all.size(); ++i) all[i] = i;
  std::vector<Query> scratch;
  const SliceAttempt a =
      run_slice(engine, &plan, stream, slice_of(all), scratch);
  EXPECT_EQ(a.outcome, SliceOutcome::kReslice);
  EXPECT_EQ(a.capacity, plan.effective_capacity(engine.capacity()));
  EXPECT_LT(a.capacity, engine.capacity());
  EXPECT_EQ(diff_outcomes(outcomes(stream), checkpoint), "");
}

}  // namespace
