// Determinism contract tests (DESIGN.md §5.6): host parallelism is a
// wall-clock accelerator only. Every engine must produce bit-identical
// query outcomes, simulated cost totals, and per-primitive attribution
// tables at any thread count. Each test runs the same workload with a
// 1-thread (fully serial) and an 8-thread global pool and compares.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "mesh/fault.hpp"
#include "multisearch/constrained.hpp"
#include "multisearch/hierarchical.hpp"
#include "multisearch/partitioned.hpp"
#include "multisearch/query.hpp"
#include "multisearch/sequential.hpp"
#include "multisearch/stream.hpp"
#include "service/engine.hpp"
#include "service/scheduler.hpp"
#include "service/tenant.hpp"
#include "trace/trace.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace {

using namespace meshsearch;
using namespace meshsearch::msearch;
using ds::KaryTree;
using ds::TreeMode;

/// Everything the determinism contract covers for one run.
struct RunRecord {
  std::vector<QueryOutcome> out;
  mesh::Cost cost;
  std::map<trace::PrimitiveKey, trace::PrimitiveStat> counters;
};

/// Run `f` (which takes a trace-wired CostModel and returns a RunRecord)
/// under a 1-thread pool and an 8-thread pool and demand bit-identical
/// results. Restores the default pool afterwards.
template <typename F>
void expect_thread_invariant(F f) {
  util::ThreadPool::set_global_threads(1);
  const RunRecord serial = f();
  util::ThreadPool::set_global_threads(8);
  const RunRecord parallel = f();
  util::ThreadPool::set_global_threads(0);
  EXPECT_EQ(diff_outcomes(serial.out, parallel.out), "");
  EXPECT_EQ(serial.cost, parallel.cost);  // exact, not approximate
  EXPECT_EQ(serial.counters.size(), parallel.counters.size());
  EXPECT_TRUE(serial.counters == parallel.counters)
      << "per-primitive attribution diverged across thread counts";
}

TEST(Determinism, Alg1PaperPlan) {
  util::Rng rng(10);
  const auto g = ds::build_hierarchical_dag(3000, 2.0, 3, rng);
  const HierarchicalDag dag(g, 2.0);
  auto qs = make_queries(g.vertex_count());
  util::Rng qrng(11);
  for (auto& q : qs)
    q.key[0] = static_cast<std::int64_t>(qrng.uniform(1ull << 40));
  const auto shape = g.shape_for(qs.size());
  expect_thread_invariant([&] {
    trace::TraceRecorder rec("counting");
    mesh::CostModel m;
    m.trace = &rec;
    auto q = qs;
    const auto res = hierarchical_multisearch(dag, ds::HashWalk{0}, q, m,
                                              shape, PlanKind::kPaper);
    return RunRecord{outcomes(q), res.cost, rec.counters()};
  });
}

TEST(Determinism, Alg1GeometricPlan) {
  util::Rng rng(12);
  const auto g = ds::build_hierarchical_dag(3000, 2.0, 3, rng);
  const HierarchicalDag dag(g, 2.0);
  auto qs = make_queries(g.vertex_count());
  util::Rng qrng(13);
  for (auto& q : qs)
    q.key[0] = static_cast<std::int64_t>(qrng.uniform(1ull << 40));
  const auto shape = g.shape_for(qs.size());
  expect_thread_invariant([&] {
    trace::TraceRecorder rec("counting");
    mesh::CostModel m;
    m.trace = &rec;
    auto q = qs;
    const auto res = hierarchical_multisearch(dag, ds::HashWalk{0}, q, m,
                                              shape, PlanKind::kGeometric);
    return RunRecord{outcomes(q), res.cost, rec.counters()};
  });
}

TEST(Determinism, WarmStreamAlg1) {
  // A warm Algorithm-1 engine under StreamScheduler with the locality
  // order: each batch is a scattered set of stream positions, so the
  // parallel write-back scatters into non-contiguous positions, and the
  // parallel reset runs on batches of several thousand queries.
  util::Rng rng(14);
  const auto g = ds::build_hierarchical_dag(3000, 2.0, 3, rng);
  const HierarchicalDag dag(g, 2.0);
  const auto shape = g.shape_for(g.vertex_count());
  auto qs = make_queries(3 * shape.size() + 101);
  util::Rng qrng(15);
  for (auto& q : qs)
    q.key[0] = static_cast<std::int64_t>(qrng.uniform(1ull << 40));
  BatchPolicy policy;
  policy.order = BatchOrder::kLocalityReorder;
  const auto slices = plan_batches(qs, policy, shape.size());
  ASSERT_GE(slices.size(), 4u);
  ASSERT_FALSE(std::is_sorted(slices.front().begin(), slices.front().end()))
      << "locality order should scatter a batch over the stream";
  expect_thread_invariant([&] {
    trace::TraceRecorder rec("counting");
    mesh::CostModel m;
    m.trace = &rec;
    PreparedSearch engine(dag, PlanKind::kPaper, ds::HashWalk{0}, m, shape);
    StreamScheduler sched(engine, policy);
    auto stream = qs;
    const auto res = sched.run(stream);
    EXPECT_EQ(res.batches.size(), slices.size());
    return RunRecord{outcomes(stream), res.total(), rec.counters()};
  });
}

TEST(Determinism, ConstrainedMultisearch) {
  const auto comb = ds::build_comb(16, 64);
  auto qs = make_queries(256);
  util::Rng rng(14);
  for (auto& q : qs) {
    q.key[0] = rng.uniform_range(0, 15);  // target tooth
    q.key[1] = rng.uniform_range(0, 63);  // depth down the tooth
  }
  reset_queries(qs);
  const auto shape = comb.graph.shape_for(qs.size());
  expect_thread_invariant([&] {
    trace::TraceRecorder rec("counting");
    mesh::CostModel m;
    m.trace = &rec;
    auto q = qs;
    const auto res = constrained_multisearch(
        comb.graph, comb.splitting, ds::CombWalk{comb.root}, q, m, shape);
    mesh::Cost cost = res.cost;
    return RunRecord{outcomes(q), cost, rec.counters()};
  });
}

TEST(Determinism, Alg2AlphaPartitioned) {
  KaryTree tree(ds::iota_keys(1000), 3, TreeMode::kDirected);
  util::Rng rng(15);
  auto qs = ds::uniform_key_queries(1000, 1020, rng);
  const auto shape = tree.graph().shape_for(qs.size());
  expect_thread_invariant([&] {
    trace::TraceRecorder rec("counting");
    mesh::CostModel m;
    m.trace = &rec;
    auto q = qs;
    const auto res = multisearch_alpha(tree.graph(), tree.alpha_splitting(),
                                       tree.rank_count(), q, m, shape);
    return RunRecord{outcomes(q), res.cost, rec.counters()};
  });
}

TEST(Determinism, DisarmedFaultPlanBitIdenticalStandaloneEngines) {
  // Fault-free contract (DESIGN.md §11): a disarmed FaultPlan threaded
  // through CostModel::fault changes nothing — outcomes, cost and
  // attribution match a null-fault run at every thread count.
  util::Rng rng(18);
  const auto g = ds::build_hierarchical_dag(1500, 2.0, 3, rng);
  const HierarchicalDag dag(g, 2.0);
  auto qs = make_queries(g.vertex_count());
  util::Rng qrng(19);
  for (auto& q : qs)
    q.key[0] = static_cast<std::int64_t>(qrng.uniform(1ull << 40));
  const auto shape = g.shape_for(qs.size());
  mesh::FaultPlan disarmed;
  for (mesh::FaultPlan* plan :
       {static_cast<mesh::FaultPlan*>(nullptr), &disarmed}) {
    expect_thread_invariant([&] {
      trace::TraceRecorder rec("counting");
      mesh::CostModel m;
      m.trace = &rec;
      m.fault = plan;
      auto q = qs;
      const auto res = hierarchical_multisearch(dag, ds::HashWalk{0}, q, m,
                                                shape, PlanKind::kPaper);
      return RunRecord{outcomes(q), res.cost, rec.counters()};
    });
  }
  // And directly across the two plan settings at the default pool.
  auto run_with = [&](mesh::FaultPlan* plan) {
    trace::TraceRecorder rec("counting");
    mesh::CostModel m;
    m.trace = &rec;
    m.fault = plan;
    auto q = qs;
    const auto res = hierarchical_multisearch(dag, ds::HashWalk{0}, q, m,
                                              shape, PlanKind::kPaper);
    return RunRecord{outcomes(q), res.cost, rec.counters()};
  };
  const RunRecord bare = run_with(nullptr);
  const RunRecord with = run_with(&disarmed);
  EXPECT_EQ(diff_outcomes(bare.out, with.out), "");
  EXPECT_EQ(bare.cost, with.cost);
  EXPECT_TRUE(bare.counters == with.counters);
  EXPECT_EQ(disarmed.stats().detections, 0u);
}

TEST(Determinism, Alg3AlphaBetaPartitioned) {
  KaryTree tree(ds::iota_keys(512), 2, TreeMode::kUndirected);
  auto qs = make_queries(256);
  util::Rng rng(16);
  for (auto& q : qs) {
    const auto a = rng.uniform_range(-3, 515);
    q.key[0] = a;
    q.key[1] = a + rng.uniform_range(0, 30);
  }
  const auto shape = tree.graph().shape_for(qs.size());
  const auto [s1, s2] = tree.alpha_beta_splittings();
  expect_thread_invariant([&] {
    trace::TraceRecorder rec("counting");
    mesh::CostModel m;
    m.trace = &rec;
    auto q = qs;
    const auto res = multisearch_alpha_beta(tree.graph(), s1, s2,
                                            tree.euler_scan(), q, m, shape);
    return RunRecord{outcomes(q), res.cost, rec.counters()};
  });
}

// ---------------------------------------------------------------------------
// Multi-tenant service determinism: a pinned arrival trace through the
// ServiceScheduler — two tenants interleaving submissions on one warm
// engine — produces bit-identical outcomes, charged costs, primitive
// attribution, AND exported tenant metrics at 1 vs 8 threads.
// ---------------------------------------------------------------------------

TEST(Determinism, MultiTenantServicePinnedTraceBitIdentical) {
  KaryTree tree(ds::iota_keys(500), 3, TreeMode::kDirected);
  const auto shape = tree.graph().shape_for(tree.graph().vertex_count());
  const std::size_t cap = shape.size();
  const auto make_stream = [&](std::size_t m, std::uint64_t seed) {
    util::Rng rng(seed);
    return ds::uniform_key_queries(m, 520, rng);
  };
  // The pinned trace: four submissions interleaved across two tenants, with
  // a pump between waves so later arrivals queue behind in-flight work, plus
  // a fifth wave that deterministically expires (the clock jumps past
  // bolt's deadline before its dispatch) so overload shedding is inside the
  // bit-identity contract too.
  const auto qa1 = make_stream(cap + 31, 71);
  const auto qb1 = make_stream(cap / 2, 72);
  const auto qa2 = make_stream(cap / 3, 73);
  const auto qb2 = make_stream(cap + 7, 74);
  const auto qb3 = make_stream(cap / 4, 75);

  // One warm batch's charged steps — the unit bolt's deadline is written
  // in. Deterministic: a scratch engine under a fresh model.
  const double spb = [&] {
    const mesh::CostModel m;
    auto scratch = service::make_partitioned_engine(
        EngineKind::kAlg2Alpha, tree.graph(), tree.alpha_splitting(),
        tree.alpha_splitting(), tree.rank_count(), m, shape);
    auto batch = make_stream(scratch->capacity(), 70);
    const BatchReport rep = scratch->run_batch(batch);
    return (rep.inject + rep.run).steps;
  }();

  struct ServiceRecord {
    std::vector<QueryOutcome> out;  ///< both tenants, ticket order
    double clock_steps = 0;
    std::map<trace::PrimitiveKey, trace::PrimitiveStat> counters;
    std::map<std::string, double> metrics;  ///< exported, deterministic
  };
  const auto run = [&] {
    trace::TraceRecorder rec("counting");
    mesh::CostModel m;
    m.trace = &rec;
    auto engine = service::make_partitioned_engine(
        EngineKind::kAlg2Alpha, tree.graph(), tree.alpha_splitting(),
        tree.alpha_splitting(), tree.rank_count(), m, shape);
    service::ServiceScheduler svc({}, &rec);
    service::TenantQuota quota;
    quota.max_outstanding = 8 * cap;
    service::SloPolicy bolt_slo;
    bolt_slo.deadline_steps = 16 * spb;  // generous: waves 1-2 never shed
    bolt_slo.shed_mode = service::ShedMode::kDeadline;
    service::TenantSession& a = svc.add_tenant("acme", *engine, quota);
    service::TenantSession& b =
        svc.add_tenant("bolt", *engine, quota, bolt_slo);
    a.submit(qa1);
    b.submit(qb1);
    svc.pump();  // wave 1 partially served before wave 2 arrives
    a.submit(qa2);
    b.submit(qb2);
    svc.run_until_idle();
    // Wave 5 expires in an idle gap: every query sheds at the next pump,
    // before any dispatch — a deterministic function of the clock sequence.
    b.submit(qb3);
    svc.advance_clock_to(svc.now_steps() + bolt_slo.deadline_steps + 1.0);
    svc.run_until_idle();
    svc.export_metrics();
    ServiceRecord r;
    for (const service::TenantSession* t : {&a, &b})
      for (service::Ticket k = 0; k < t->submitted(); ++k) {
        if (t->poll(k) == service::QueryState::kShed) {
          // No answer to read (result() throws the typed error); pin the
          // shed state itself as a sentinel row.
          r.out.push_back(QueryOutcome{-1, -1, -1, -1});
          continue;
        }
        const Query& q = t->result(k);
        r.out.push_back(QueryOutcome{q.steps, q.acc0, q.acc1, q.result});
      }
    r.clock_steps = svc.now_steps();
    r.counters = rec.counters();
    for (const auto& mt : rec.stats().snapshot().gauges)
      r.metrics[mt.name] = mt.value;
    return r;
  };

  util::ThreadPool::set_global_threads(1);
  const ServiceRecord serial = run();
  util::ThreadPool::set_global_threads(8);
  const ServiceRecord parallel = run();
  util::ThreadPool::set_global_threads(0);

  EXPECT_EQ(diff_outcomes(serial.out, parallel.out), "");
  EXPECT_EQ(serial.clock_steps, parallel.clock_steps);  // exact
  EXPECT_TRUE(serial.counters == parallel.counters)
      << "per-primitive attribution diverged";
  EXPECT_EQ(serial.metrics.size(), parallel.metrics.size());
  EXPECT_TRUE(serial.metrics == parallel.metrics)
      << "exported tenant metrics diverged";
  // Sanity: the pinned trace exercised both tenants, produced metrics, and
  // shed exactly the expired wave (completed + shed == submitted for bolt).
  EXPECT_EQ(serial.out.size(), qa1.size() + qb1.size() + qa2.size() +
                                   qb2.size() + qb3.size());
  EXPECT_EQ(serial.metrics.at("tenant.acme.completed"),
            static_cast<double>(qa1.size() + qa2.size()));
  EXPECT_EQ(serial.metrics.at("tenant.bolt.completed"),
            static_cast<double>(qb1.size() + qb2.size()));
  EXPECT_EQ(serial.metrics.at("tenant.bolt.shed"),
            static_cast<double>(qb3.size()));
}

}  // namespace
