// Multi-tenant service tests (src/service/): oracle agreement per tenant,
// the EngineRegistry contract, admission-control rejection (CapacityError
// with tenant context, nothing enqueued, nothing charged), async
// poll/result/callback completion, and the fairness properties of
// deficit-round-robin between tenant streams — bounded queue wait for a
// light tenant under a 10:1 offered-load skew, exact per-round service
// shares, and the exhaustive baseline starving late registrants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "multisearch/query.hpp"
#include "multisearch/sequential.hpp"
#include "multisearch/stream.hpp"
#include "service/engine.hpp"
#include "service/scheduler.hpp"
#include "service/tenant.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace meshsearch;
using namespace meshsearch::msearch;
using namespace meshsearch::service;
using ds::KaryTree;
using ds::TreeMode;

// ---------------------------------------------------------------------------
// Fixtures: the same long-lived structures the stream tests use, so
// PreparedSearch's cached pointers stay valid for the whole test.
// ---------------------------------------------------------------------------

struct Alg1Fixture {
  DistributedGraph g;
  HierarchicalDag dag;
  mesh::MeshShape shape;

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

/// Gather a submission's answered queries back in ticket order.
std::vector<Query> results_of(const TenantSession& t, const Submission& sub) {
  std::vector<Query> out;
  out.reserve(sub.count);
  for (Ticket k = sub.first; k < sub.first + sub.count; ++k)
    out.push_back(t.result(k));
  return out;
}

// ---------------------------------------------------------------------------
// Oracle agreement: every tenant's answers match the sequential reference,
// with tenants interleaved on one warm engine and across the full registry.
// ---------------------------------------------------------------------------

TEST(ServiceOracle, TwoTenantsOneWarmEngineMatchSequential) {
  const Alg2Fixture fx;
  const std::size_t cap = fx.shape.size();
  const mesh::CostModel m;
  auto engine = make_partitioned_engine(
      EngineKind::kAlg2Alpha, fx.tree.graph(), fx.tree.alpha_splitting(),
      fx.tree.alpha_splitting(), fx.tree.rank_count(), m, fx.shape);

  ServiceScheduler svc;
  TenantQuota quota;
  quota.max_outstanding = 16 * cap;
  TenantSession& a = svc.add_tenant("acme", *engine, quota);
  TenantSession& b = svc.add_tenant("bolt", *engine, quota);

  const auto qa = fx.stream(2 * cap + 17, /*seed=*/101);
  const auto qb = fx.stream(cap + 5, /*seed=*/202);
  const Submission sa = a.submit(qa);
  const Submission sb = b.submit(qb);
  const std::size_t resolved = svc.run_until_idle();
  EXPECT_EQ(resolved, qa.size() + qb.size());
  EXPECT_TRUE(svc.idle());

  auto ea = qa;
  auto eb = qb;
  sequential_multisearch(fx.tree.graph(), fx.tree.rank_count(), ea);
  sequential_multisearch(fx.tree.graph(), fx.tree.rank_count(), eb);
  EXPECT_EQ(diff_outcomes(outcomes(results_of(a, sa)), outcomes(ea)), "");
  EXPECT_EQ(diff_outcomes(outcomes(results_of(b, sb)), outcomes(eb)), "");

  // The warm engine served both tenants without re-preparing: charged work
  // is inject + run only, setup stays the one-time construction charge.
  const TenantReport ra = a.report();
  const TenantReport rb = b.report();
  EXPECT_EQ(ra.completed, qa.size());
  EXPECT_EQ(rb.completed, qb.size());
  EXPECT_EQ(ra.failed_queries, 0u);
  EXPECT_EQ(rb.failed_queries, 0u);
  EXPECT_GT(ra.charged().steps, 0.0);
  EXPECT_GT(rb.charged().steps, 0.0);
  EXPECT_DOUBLE_EQ(svc.now_steps(),
                   ra.charged().steps + rb.charged().steps);
}

TEST(ServiceOracle, RegistryServesAllFourEngineKinds) {
  const Alg1Fixture fx1;
  const Alg2Fixture fx2;
  const Alg3Fixture fx3;
  const mesh::CostModel m;

  EngineRegistry registry;
  registry.add({"dag", EngineKind::kAlg1Paper},
               make_hierarchical_engine(fx1.dag, PlanKind::kPaper,
                                        ds::HashWalk{0}, m, fx1.shape));
  registry.add({"dag", EngineKind::kAlg1Geometric},
               make_hierarchical_engine(fx1.dag, PlanKind::kGeometric,
                                        ds::HashWalk{0}, m, fx1.shape));
  registry.add({"tree500", EngineKind::kAlg2Alpha},
               make_partitioned_engine(EngineKind::kAlg2Alpha, fx2.tree.graph(),
                                       fx2.tree.alpha_splitting(),
                                       fx2.tree.alpha_splitting(),
                                       fx2.tree.rank_count(), m, fx2.shape));
  registry.add({"tree256", EngineKind::kAlg3AlphaBeta},
               make_partitioned_engine(EngineKind::kAlg3AlphaBeta,
                                       fx3.tree.graph(), fx3.s1, fx3.s2,
                                       fx3.tree.euler_scan(), m, fx3.shape));
  EXPECT_EQ(registry.size(), 4u);
  EXPECT_EQ(registry.find({"dag", EngineKind::kAlg2Alpha}), nullptr);
  EXPECT_THROW(registry.at({"missing", EngineKind::kAlg1Paper}),
               InvalidInputError);
  EXPECT_THROW(registry.add({"dag", EngineKind::kAlg1Paper}, nullptr),
               InvalidInputError);

  ServiceScheduler svc;
  TenantQuota quota;
  quota.max_outstanding = 1 << 16;
  TenantSession& t1 = svc.add_tenant(
      "t1", registry.at({"dag", EngineKind::kAlg1Paper}), quota);
  TenantSession& t1g = svc.add_tenant(
      "t1g", registry.at({"dag", EngineKind::kAlg1Geometric}), quota);
  TenantSession& t2 = svc.add_tenant(
      "t2", registry.at({"tree500", EngineKind::kAlg2Alpha}), quota);
  TenantSession& t3 = svc.add_tenant(
      "t3", registry.at({"tree256", EngineKind::kAlg3AlphaBeta}), quota);

  const auto q1 = fx1.stream(fx1.shape.size() + 31, 11);
  const auto q1g = fx1.stream(fx1.shape.size() / 2 + 9, 12);
  const auto q2 = fx2.stream(fx2.shape.size() + 7, 13);
  const auto q3 = fx3.stream(fx3.shape.size() + 3, 14);
  const Submission s1 = t1.submit(q1);
  const Submission s1g = t1g.submit(q1g);
  const Submission s2 = t2.submit(q2);
  const Submission s3 = t3.submit(q3);
  svc.run_until_idle();

  auto e1 = q1;
  auto e1g = q1g;
  auto e2 = q2;
  auto e3 = q3;
  sequential_multisearch(fx1.g, ds::HashWalk{0}, e1);
  sequential_multisearch(fx1.g, ds::HashWalk{0}, e1g);
  sequential_multisearch(fx2.tree.graph(), fx2.tree.rank_count(), e2);
  sequential_multisearch(fx3.tree.graph(), fx3.tree.euler_scan(), e3);
  EXPECT_EQ(diff_outcomes(outcomes(results_of(t1, s1)), outcomes(e1)), "");
  EXPECT_EQ(diff_outcomes(outcomes(results_of(t1g, s1g)), outcomes(e1g)), "");
  EXPECT_EQ(diff_outcomes(outcomes(results_of(t2, s2)), outcomes(e2)), "");
  EXPECT_EQ(diff_outcomes(outcomes(results_of(t3, s3)), outcomes(e3)), "");
}

// ---------------------------------------------------------------------------
// Admission control: quota exceeded -> CapacityError naming the tenant,
// nothing enqueued, nothing charged.
// ---------------------------------------------------------------------------

TEST(ServiceAdmission, OverQuotaSubmitRejectedWholeWithTenantContext) {
  const Alg3Fixture fx;
  const mesh::CostModel m;  // no sinks: the engine charges nowhere visible
  auto engine = make_partitioned_engine(EngineKind::kAlg3AlphaBeta,
                                        fx.tree.graph(), fx.s1, fx.s2,
                                        fx.tree.euler_scan(), m, fx.shape);
  trace::TraceRecorder rec("service");
  ServiceScheduler svc({}, &rec);
  TenantQuota quota;
  quota.max_outstanding = 10;
  TenantSession& t = svc.add_tenant("acme", *engine, quota);

  bool threw = false;
  try {
    t.submit(fx.stream(11));
  } catch (const CapacityError& e) {
    threw = true;
    // The error context names the tenant so a multiplexed caller can tell
    // whose quota tripped.
    EXPECT_EQ(e.context().site, "acme");
    EXPECT_EQ(e.context().phase, "admission");
    EXPECT_EQ(e.context().engine, "service");
  }
  EXPECT_TRUE(threw);

  // Nothing was enqueued and nothing was charged: no tickets exist, the
  // trace saw no primitive work, the virtual clock never moved.
  EXPECT_EQ(t.submitted(), 0u);
  EXPECT_EQ(t.outstanding(), 0u);
  EXPECT_TRUE(svc.idle());
  EXPECT_TRUE(rec.counters().empty());
  EXPECT_DOUBLE_EQ(svc.now_steps(), 0.0);
  const TenantReport rep = t.report();
  EXPECT_EQ(rep.rejected_submissions, 1u);
  EXPECT_EQ(rep.rejected_queries, 11u);
  EXPECT_EQ(rep.batches, 0u);

  // The session is not poisoned: an in-quota submit still works, and after
  // the backlog drains the freed quota admits more.
  const Submission ok = t.submit(fx.stream(10));
  EXPECT_EQ(ok.count, 10u);
  EXPECT_THROW(t.submit(fx.stream(1)), CapacityError);
  svc.run_until_idle();
  EXPECT_EQ(t.submit(fx.stream(10)).count, 10u);
  svc.run_until_idle();
  EXPECT_EQ(t.report().completed, 20u);
}

TEST(ServiceAdmission, EmptySubmitIsANoOp) {
  const Alg3Fixture fx;
  const mesh::CostModel m;
  auto engine = make_partitioned_engine(EngineKind::kAlg3AlphaBeta,
                                        fx.tree.graph(), fx.s1, fx.s2,
                                        fx.tree.euler_scan(), m, fx.shape);
  ServiceScheduler svc;
  TenantSession& t = svc.add_tenant("acme", *engine);
  const Submission sub = t.submit({});
  EXPECT_EQ(sub.count, 0u);
  EXPECT_EQ(t.outstanding(), 0u);
  EXPECT_TRUE(svc.idle());
}

TEST(ServiceAdmission, BadTenantRegistrationRejected) {
  const Alg3Fixture fx;
  const mesh::CostModel m;
  auto engine = make_partitioned_engine(EngineKind::kAlg3AlphaBeta,
                                        fx.tree.graph(), fx.s1, fx.s2,
                                        fx.tree.euler_scan(), m, fx.shape);
  ServiceScheduler svc;
  svc.add_tenant("acme", *engine);
  EXPECT_THROW(svc.add_tenant("acme", *engine), InvalidInputError);
  TenantQuota zero_outstanding;
  zero_outstanding.max_outstanding = 0;
  EXPECT_THROW(svc.add_tenant("b", *engine, zero_outstanding),
               InvalidInputError);
  EXPECT_THROW(svc.tenant("nobody"), InvalidInputError);
}

// ---------------------------------------------------------------------------
// Async completion: poll observes the state machine, result returns the
// answered query, the callback fires exactly once per query.
// ---------------------------------------------------------------------------

TEST(ServiceAsync, PollResultAndCallbackCompletion) {
  const Alg2Fixture fx;
  const std::size_t cap = fx.shape.size();
  const mesh::CostModel m;
  auto engine = make_partitioned_engine(
      EngineKind::kAlg2Alpha, fx.tree.graph(), fx.tree.alpha_splitting(),
      fx.tree.alpha_splitting(), fx.tree.rank_count(), m, fx.shape);
  ServiceScheduler svc;
  TenantQuota quota;
  quota.max_outstanding = 4 * cap;
  TenantSession& t = svc.add_tenant("acme", *engine, quota);

  std::set<Ticket> seen;
  std::size_t failures = 0;
  t.on_complete([&](const CompletionEvent& ev) {
    EXPECT_TRUE(seen.insert(ev.ticket).second) << "double completion";
    EXPECT_NE(ev.query, nullptr);
    EXPECT_GE(ev.latency_steps, 0.0);
    if (ev.failed) ++failures;
  });

  const auto qs = fx.stream(cap + cap / 2);
  const Submission sub = t.submit(qs);
  for (Ticket k = sub.first; k < sub.first + sub.count; ++k)
    EXPECT_EQ(t.poll(k), QueryState::kPending);

  svc.run_until_idle();
  EXPECT_EQ(seen.size(), qs.size());
  EXPECT_EQ(failures, 0u);
  for (Ticket k = sub.first; k < sub.first + sub.count; ++k)
    EXPECT_EQ(t.poll(k), QueryState::kDone);

  auto expect = qs;
  sequential_multisearch(fx.tree.graph(), fx.tree.rank_count(), expect);
  EXPECT_EQ(diff_outcomes(outcomes(results_of(t, sub)), outcomes(expect)),
            "");
}

// ---------------------------------------------------------------------------
// Fairness: the properties deficit-round-robin exists to provide.
// ---------------------------------------------------------------------------

TEST(ServiceFairness, DrrBoundsLightTenantQueueWaitUnderTenToOneSkew) {
  const Alg3Fixture fx;
  const std::size_t cap = fx.shape.size();
  const auto heavy_qs = fx.stream(10 * cap, /*seed=*/31);  // 10:1 offered load
  const auto light_qs = fx.stream(cap, /*seed=*/32);
  const mesh::CostModel m;

  const auto run = [&](SchedulePolicy policy) {
    auto engine = make_partitioned_engine(EngineKind::kAlg3AlphaBeta,
                                          fx.tree.graph(), fx.s1, fx.s2,
                                          fx.tree.euler_scan(), m, fx.shape);
    ServiceConfig cfg;
    cfg.policy = policy;
    ServiceScheduler svc(cfg);
    TenantQuota quota;
    quota.max_outstanding = 16 * cap;
    // The heavy tenant registers FIRST — the adversarial order: an unfair
    // scheduler serves its whole backlog before the light tenant runs.
    TenantSession& heavy = svc.add_tenant("heavy", *engine, quota);
    TenantSession& light = svc.add_tenant("light", *engine, quota);
    const Submission sh = heavy.submit(heavy_qs);
    const Submission sl = light.submit(light_qs);
    svc.run_until_idle();
    // No starvation under either policy: everything completes, correctly.
    auto eh = heavy_qs;
    auto el = light_qs;
    sequential_multisearch(fx.tree.graph(), fx.tree.euler_scan(), eh);
    sequential_multisearch(fx.tree.graph(), fx.tree.euler_scan(), el);
    EXPECT_EQ(diff_outcomes(outcomes(results_of(heavy, sh)), outcomes(eh)),
              "");
    EXPECT_EQ(diff_outcomes(outcomes(results_of(light, sl)), outcomes(el)),
              "");
    return std::pair{heavy.report(), light.report()};
  };

  const auto [drr_heavy, drr_light] = run(SchedulePolicy::kDeficitRoundRobin);
  // Under DRR the light tenant is served every round: its worst queue wait
  // is bounded by one round of everyone else's quanta — here, ONE heavy
  // batch — no matter how deep the heavy backlog is.
  const double total_steps =
      drr_heavy.charged().steps + drr_light.charged().steps;
  const double mean_batch =
      total_steps / static_cast<double>(drr_heavy.batches + drr_light.batches);
  EXPECT_GT(drr_light.queue_wait_steps.count(), 0u);
  EXPECT_LE(drr_light.queue_wait_steps.max(), 2.0 * mean_batch);

  const auto [exh_heavy, exh_light] = run(SchedulePolicy::kExhaustive);
  // The exhaustive baseline drains all ten heavy batches first: the light
  // tenant's BEST case waits the heavy tenant's whole backlog. DRR beats it
  // by a wide margin (~10x here; assert 4x for slack).
  EXPECT_GE(exh_light.queue_wait_steps.min(),
            exh_heavy.charged().steps * 0.999);
  EXPECT_GE(exh_light.queue_wait_steps.min(),
            4.0 * drr_light.queue_wait_steps.max());
  // Both policies do the same work; fairness only re-orders it.
  EXPECT_DOUBLE_EQ(exh_heavy.charged().steps + exh_light.charged().steps,
                   total_steps);
}

TEST(ServiceFairness, WeightedTenantsGetExactProportionalService) {
  // The DRR quantum is the tenant's engine capacity, so a tenant served by
  // a 4x larger mesh over the same structure gets exactly 4x the service
  // of one on the base mesh: "weight" is engine capacity.
  const Alg3Fixture fx;
  const mesh::CostModel m;
  const mesh::MeshShape big(2 * fx.shape.side());
  auto gold_engine = make_partitioned_engine(EngineKind::kAlg3AlphaBeta,
                                             fx.tree.graph(), fx.s1, fx.s2,
                                             fx.tree.euler_scan(), m, big);
  auto coach_engine = make_partitioned_engine(EngineKind::kAlg3AlphaBeta,
                                              fx.tree.graph(), fx.s1, fx.s2,
                                              fx.tree.euler_scan(), m,
                                              fx.shape);
  const std::size_t gold_cap = gold_engine->capacity();
  const std::size_t coach_cap = coach_engine->capacity();
  ASSERT_EQ(gold_cap, 4 * coach_cap);
  ServiceScheduler svc;
  TenantQuota quota;
  quota.max_outstanding = 16 * gold_cap;
  TenantSession& g = svc.add_tenant("gold", *gold_engine, quota);
  TenantSession& c = svc.add_tenant("coach", *coach_engine, quota);
  g.submit(fx.stream(4 * gold_cap, 41));
  c.submit(fx.stream(4 * coach_cap, 42));

  // With both backlogs deep, k rounds serve exactly k * (own capacity)
  // queries each: shares proportional to capacity, not approximately but
  // exactly.
  for (std::size_t k = 1; k <= 3; ++k) {
    svc.pump();
    EXPECT_EQ(g.report().completed, k * gold_cap);
    EXPECT_EQ(c.report().completed, k * coach_cap);
  }
  svc.run_until_idle();
  EXPECT_EQ(g.report().completed, 4 * gold_cap);
  EXPECT_EQ(c.report().completed, 4 * coach_cap);
}

// ---------------------------------------------------------------------------
// Per-tenant metric namespacing.
// ---------------------------------------------------------------------------

TEST(ServiceMetrics, ExportNamespacesPerTenantAndSanitizesNames) {
  EXPECT_EQ(trace::tenant_metric("acme", "completed"),
            "tenant.acme.completed");
  EXPECT_EQ(trace::tenant_metric("a b/c", "x"), "tenant.a_b_c.x");
  EXPECT_EQ(trace::tenant_metric("acme", ""), "tenant.acme.");

  const Alg3Fixture fx;
  const std::size_t cap = fx.shape.size();
  const mesh::CostModel m;
  auto engine = make_partitioned_engine(EngineKind::kAlg3AlphaBeta,
                                        fx.tree.graph(), fx.s1, fx.s2,
                                        fx.tree.euler_scan(), m, fx.shape);
  trace::TraceRecorder rec("service");
  ServiceScheduler svc({}, &rec);
  TenantQuota quota;
  quota.max_outstanding = 4 * cap;
  TenantSession& a = svc.add_tenant("acme", *engine, quota);
  TenantSession& b = svc.add_tenant("bolt", *engine, quota);
  a.submit(fx.stream(cap + 9, 51));
  b.submit(fx.stream(cap / 2, 52));
  svc.run_until_idle();
  svc.export_metrics();

  std::map<std::string, double> metrics;
  for (const auto& mt : rec.stats().snapshot().gauges)
    metrics[mt.name] = mt.value;
  EXPECT_EQ(metrics.at("tenant.acme.completed"),
            static_cast<double>(cap + 9));
  EXPECT_EQ(metrics.at("tenant.bolt.completed"),
            static_cast<double>(cap / 2));
  EXPECT_EQ(metrics.at("tenant.acme.failed_queries"), 0.0);
  EXPECT_EQ(metrics.at("tenant.bolt.degraded_batches"), 0.0);
  EXPECT_EQ(metrics.at("service.tenants"), 2.0);
  EXPECT_DOUBLE_EQ(metrics.at("service.clock_steps"), svc.now_steps());
  EXPECT_DOUBLE_EQ(metrics.at("tenant.acme.charged_steps") +
                       metrics.at("tenant.bolt.charged_steps"),
                   svc.now_steps());
}

// ---------------------------------------------------------------------------
// Virtual clock.
// ---------------------------------------------------------------------------

TEST(ServiceClock, AdvancesByChargedStepsAndIdleGaps) {
  const Alg3Fixture fx;
  const std::size_t cap = fx.shape.size();
  const mesh::CostModel m;
  auto engine = make_partitioned_engine(EngineKind::kAlg3AlphaBeta,
                                        fx.tree.graph(), fx.s1, fx.s2,
                                        fx.tree.euler_scan(), m, fx.shape);
  ServiceScheduler svc;
  TenantQuota quota;
  quota.max_outstanding = 4 * cap;
  TenantSession& t = svc.add_tenant("acme", *engine, quota);
  EXPECT_DOUBLE_EQ(svc.now_steps(), 0.0);
  t.submit(fx.stream(cap / 2, 61));
  svc.run_until_idle();
  const double after_first = svc.now_steps();
  EXPECT_GT(after_first, 0.0);
  EXPECT_DOUBLE_EQ(after_first, t.report().charged().steps);

  // Idle gap, then more work: later queries' waits are measured from their
  // own admission time, not the epoch.
  svc.advance_clock_to(after_first + 1e6);
  const Submission sub = t.submit(fx.stream(cap / 2, 62));
  svc.run_until_idle();
  EXPECT_GT(svc.now_steps(), after_first + 1e6);
  for (Ticket k = sub.first; k < sub.first + sub.count; ++k)
    EXPECT_EQ(t.poll(k), QueryState::kDone);
  // Queue wait of the post-gap batch is 0: it was served immediately.
  const TenantReport rep = t.report();
  EXPECT_LT(rep.latency_steps.max(), 1e6);  // nobody waited across the gap
}

}  // namespace
