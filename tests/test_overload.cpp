// Overload-protection tests (src/service/): the circuit-breaker state
// machine (trip -> half-open probe -> recovery), deadline shedding with an
// oracle check that shed queries never reach an engine, backpressure with a
// structured retry-after hint, brownout deprioritization of over-target
// tenants, the shed-resolves-update-barrier invariant, and bit-identity of
// the whole overload pipeline at 1 vs 8 threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "mesh/fault.hpp"
#include "multisearch/query.hpp"
#include "multisearch/sequential.hpp"
#include "multisearch/stream.hpp"
#include "service/breaker.hpp"
#include "service/engine.hpp"
#include "service/scheduler.hpp"
#include "service/tenant.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace {

using namespace meshsearch;
using namespace meshsearch::msearch;
using namespace meshsearch::service;
using ds::KaryTree;
using ds::TreeMode;

/// The report's derived counts agree with the ones it is derived from:
/// every admitted query is outstanding or resolved exactly once, and every
/// applied update took exactly one refresh.
void expect_counts_consistent(const TenantSession& t) {
  const TenantReport rep = t.report();
  EXPECT_EQ(rep.outstanding,
            rep.submitted - rep.completed - rep.failed_queries - rep.shed);
  EXPECT_EQ(t.outstanding(), rep.outstanding);
  EXPECT_EQ(rep.updates_applied,
            rep.incremental_refreshes + rep.full_refreshes);
  EXPECT_EQ(t.updates_applied(), rep.updates_applied);
}

// ---------------------------------------------------------------------------
// Shared fixture: one directed k-ary tree and a warm Alg2 engine over it,
// the same long-lived-structure pattern the service tests use.
// ---------------------------------------------------------------------------

struct TreeFixture {
  KaryTree tree;
  mesh::MeshShape shape;

  TreeFixture() : tree(ds::iota_keys(500), 3, TreeMode::kDirected),
                  shape(tree.graph().shape_for(tree.graph().vertex_count())) {}

  std::unique_ptr<Engine> make_engine(const mesh::CostModel& m) const {
    auto e = service::make_partitioned_engine(
        EngineKind::kAlg2Alpha, tree.graph(), tree.alpha_splitting(),
        tree.alpha_splitting(), tree.rank_count(), m, shape);
    e->set_dataset("books");
    return e;
  }

  std::vector<Query> stream(std::size_t m, std::uint64_t seed) const {
    util::Rng rng(seed);
    return ds::uniform_key_queries(m, 520, rng);
  }

  /// Queries with DISTINCT keys `first .. first + m - 1` (m + first <= 520),
  /// so a batch's contents are identifiable from the keys an engine saw.
  std::vector<Query> unique_stream(std::size_t m, std::int64_t first) const {
    auto qs = make_queries(m);
    for (std::size_t i = 0; i < m; ++i)
      qs[i].key[0] = first + static_cast<std::int64_t>(i);
    return qs;
  }

  /// Charged steps of one full warm batch — the virtual-time unit deadline
  /// and target policies are expressed in. Deterministic (a scratch engine
  /// run under a fresh model).
  double steps_per_batch() const {
    const mesh::CostModel m;
    auto scratch = make_engine(m);
    auto batch = stream(scratch->capacity(), /*seed=*/9);
    const BatchReport rep = scratch->run_batch(batch);
    return (rep.inject + rep.run).steps;
  }
};

/// Engine wrapper that records the key of every query actually dispatched
/// to run_batch — the oracle for "shed queries never reach an engine".
class RecordingEngine final : public Engine {
 public:
  explicit RecordingEngine(Engine& inner) : inner_(&inner) {}

  EngineKind kind() const override { return inner_->kind(); }
  std::size_t capacity() const override { return inner_->capacity(); }
  mesh::Cost setup_cost() const override { return inner_->setup_cost(); }
  std::size_t batches_served() const override {
    return inner_->batches_served();
  }
  const std::string& dataset() const override { return inner_->dataset(); }
  void set_dataset(std::string name) override {
    inner_->set_dataset(std::move(name));
  }
  std::uint64_t structure_generation() const override {
    return inner_->structure_generation();
  }
  std::uint64_t prepared_generation() const override {
    return inner_->prepared_generation();
  }
  bool stale() const override { return inner_->stale(); }
  std::size_t refreshes() const override { return inner_->refreshes(); }
  RefreshReport refresh(const RefreshRequest& req) override {
    return inner_->refresh(req);
  }
  void bind_sinks(trace::TraceRecorder* trace,
                  mesh::FaultPlan* fault) override {
    inner_->bind_sinks(trace, fault);
  }
  BatchReport run_batch(std::vector<Query>& batch) override {
    for (const auto& q : batch) dispatched_keys.insert(q.key[0]);
    return inner_->run_batch(batch);
  }

  std::set<std::int64_t> dispatched_keys;

 private:
  Engine* inner_;
};

// ---------------------------------------------------------------------------
// Circuit breaker: the state machine in isolation.
// ---------------------------------------------------------------------------

TEST(Breaker, StateMachineTripProbeRecovery) {
  CircuitBreaker br;
  br.configure(BreakerPolicy{/*failure_threshold=*/3});
  ASSERT_TRUE(br.enabled());
  EXPECT_EQ(br.state(), BreakerState::kClosed);

  // Two failures: streak grows, still closed; a success resets the streak.
  EXPECT_FALSE(br.record_failure(/*round=*/1));
  EXPECT_FALSE(br.record_failure(1));
  EXPECT_EQ(br.consecutive_failures(), 2u);
  EXPECT_FALSE(br.record_success());  // not a probe: no "recovery"
  EXPECT_EQ(br.consecutive_failures(), 0u);

  // Three consecutive failures trip it open.
  EXPECT_FALSE(br.record_failure(2));
  EXPECT_FALSE(br.record_failure(2));
  EXPECT_TRUE(br.record_failure(2));
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_EQ(br.counters().trips, 1u);

  // Same round: fail fast. Later round: the first admit IS the probe.
  EXPECT_FALSE(br.admit(2));
  EXPECT_TRUE(br.admit(3));
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);
  EXPECT_EQ(br.counters().probes, 1u);

  // Failed probe re-trips immediately (no threshold wait)...
  EXPECT_TRUE(br.record_failure(3));
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_EQ(br.counters().trips, 2u);
  EXPECT_FALSE(br.admit(3));

  // ...and the next round's probe can recover.
  EXPECT_TRUE(br.admit(4));
  EXPECT_TRUE(br.record_success());
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_EQ(br.counters().recoveries, 1u);
  EXPECT_EQ(br.consecutive_failures(), 0u);

  // A probe that throws resolves nothing and leaves the breaker half-open:
  // every later round probes again rather than failing fast for good.
  br.record_failure(5);
  br.record_failure(5);
  EXPECT_TRUE(br.record_failure(5));
  EXPECT_FALSE(br.admit(5));
  EXPECT_TRUE(br.admit(6));
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(br.admit(7));
  EXPECT_EQ(br.counters().probes, 4u);
}

TEST(Breaker, DisabledByDefaultNeverTrips) {
  CircuitBreaker br;
  EXPECT_FALSE(br.enabled());
  for (std::uint64_t r = 0; r < 64; ++r)
    EXPECT_FALSE(br.record_failure(r));
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_TRUE(br.admit(99));
  EXPECT_EQ(br.counters().trips, 0u);
}

// ---------------------------------------------------------------------------
// Breaker in the service: trip on a failing tenant, fail co-resident work
// fast with zero charge, probe and recover once the engine heals.
// ---------------------------------------------------------------------------

TEST(Breaker, ServiceTripsFailsFastAndRecovers) {
  const TreeFixture fx;
  const std::size_t cap = fx.shape.size();
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.trace = &rec;
  auto engine = fx.make_engine(m);
  engine->breaker().configure(BreakerPolicy{/*failure_threshold=*/1});

  ServiceScheduler svc({}, &rec);
  TenantQuota quota;
  quota.max_outstanding = 16 * cap;
  TenantSession& sick = svc.add_tenant("sick", *engine, quota);
  TenantSession& bystander = svc.add_tenant("bystander", *engine, quota);

  // Every one of sick's attempts faults with no retries and no replans:
  // each dispatch resolves its queries kFailed and feeds the breaker one
  // failure.
  mesh::FaultConfig cfg;
  cfg.seed = 17;
  cfg.p_phase = 1.0;
  cfg.max_retries = 0;
  cfg.max_replans = 0;
  mesh::FaultPlan plan(cfg);
  sick.set_fault(&plan);

  // Both streams fit one DRR quantum (= capacity), so one pump round
  // resolves each tenant's whole queue.
  const auto sick_qs = fx.stream(cap / 2, 41);
  const auto by_qs = fx.stream(cap / 2 + 7, 42);
  sick.submit(sick_qs);
  bystander.submit(by_qs);

  // Round 1: sick dispatches first (registration order), fails, trips the
  // breaker (threshold 1). Bystander's turn is in the SAME round, so its
  // dispatches hit the open breaker and fail fast — reported, zero charge.
  const double clock_before = svc.now_steps();
  svc.pump();
  const TenantReport by1 = bystander.report();
  EXPECT_EQ(engine->breaker().state(), BreakerState::kOpen);
  EXPECT_GE(engine->breaker().counters().trips, 1u);
  EXPECT_EQ(by1.failed_queries, by_qs.size());
  EXPECT_EQ(by1.failed_fast, by_qs.size());
  EXPECT_EQ(by1.completed, 0u);
  // Fail-fast charged nothing on bystander's behalf; the only clock motion
  // was sick's failed attempt (a failed attempt advances nothing either).
  EXPECT_EQ(by1.charged().steps, 0.0);
  EXPECT_EQ(svc.now_steps(), clock_before);
  // Fail-fast batches are not real attempts: batches_ counts dispatches.
  EXPECT_EQ(by1.batches, 0u);

  // The engine heals (fault disarmed). The next round's first dispatch is
  // the half-open probe; it succeeds and the breaker recovers.
  sick.set_fault(nullptr);
  const auto sick_qs2 = fx.stream(cap / 4, 43);
  const Submission s2 = sick.submit(sick_qs2);
  svc.run_until_idle();
  EXPECT_EQ(engine->breaker().state(), BreakerState::kClosed);
  EXPECT_GE(engine->breaker().counters().probes, 1u);
  EXPECT_GE(engine->breaker().counters().recoveries, 1u);
  // The probe's queries were REALLY answered — oracle check.
  auto expect = sick_qs2;
  sequential_multisearch(fx.tree.graph(), fx.tree.rank_count(), expect);
  std::vector<Query> got;
  for (Ticket k = s2.first; k < s2.first + s2.count; ++k)
    got.push_back(sick.result(k));
  EXPECT_EQ(diff_outcomes(outcomes(got), outcomes(expect)), "");

  // Both exporters carry the breaker family.
  svc.export_metrics();
  std::map<std::string, double> metrics;
  for (const auto& mt : rec.stats().snapshot().gauges)
    metrics[mt.name] = mt.value;
  ASSERT_EQ(metrics.count("service.breaker.books_alg2-alpha.trips"), 1u);
  EXPECT_GE(metrics.at("service.breaker.books_alg2-alpha.trips"), 1.0);
  EXPECT_GE(metrics.at("service.breaker.books_alg2-alpha.recoveries"), 1.0);
  EXPECT_EQ(metrics.at("service.breaker.books_alg2-alpha.fail_fast_queries"),
            static_cast<double>(by_qs.size()));
  EXPECT_EQ(metrics.at("service.breaker.books_alg2-alpha.open"), 0.0);
  EXPECT_EQ(metrics.at("tenant.bystander.failed_fast"),
            static_cast<double>(by_qs.size()));
}

// ---------------------------------------------------------------------------
// Deadline shedding: expired queries resolve kShed BEFORE dispatch and
// never reach an engine (oracle via RecordingEngine); result() throws the
// typed error; completion callbacks fire with shed=true.
// ---------------------------------------------------------------------------

TEST(Overload, DeadlineShedsBeforeDispatchOracle) {
  const TreeFixture fx;
  const double spb = fx.steps_per_batch();
  const mesh::CostModel m;
  auto inner = fx.make_engine(m);
  RecordingEngine engine(*inner);

  ServiceScheduler svc;
  TenantQuota quota;
  quota.max_outstanding = 4096;
  SloPolicy slo;
  slo.deadline_steps = 2 * spb;
  slo.shed_mode = ShedMode::kDeadline;
  TenantSession& t = svc.add_tenant("acme", engine, quota, slo);

  std::vector<CompletionEvent> events;
  t.on_complete([&](const CompletionEvent& ev) { events.push_back(ev); });

  // Wave 1 (keys 0..259) is served promptly: nothing sheds.
  const auto wave1 = fx.unique_stream(260, /*first=*/0);
  const Submission s1 = t.submit(wave1);
  svc.run_until_idle();
  EXPECT_EQ(t.report().shed, 0u);

  // Wave 2 (keys 260..519) queues, then the clock jumps past its deadline
  // before any dispatch opportunity: every query sheds, none is served.
  const auto wave2 = fx.unique_stream(260, /*first=*/260);
  const Submission s2 = t.submit(wave2);
  svc.advance_clock_to(svc.now_steps() + slo.deadline_steps + 1.0);
  svc.run_until_idle();

  const TenantReport rep = t.report();
  EXPECT_EQ(rep.completed, wave1.size());
  EXPECT_EQ(rep.shed, wave2.size());
  EXPECT_EQ(rep.failed_queries, 0u);  // shed is disjoint from failed
  EXPECT_EQ(rep.outstanding, 0u);

  // Oracle: no shed key was ever handed to run_batch.
  for (const auto& q : wave2)
    EXPECT_EQ(engine.dispatched_keys.count(q.key[0]), 0u)
        << "shed query with key " << q.key[0] << " reached the engine";
  for (const auto& q : wave1)
    EXPECT_EQ(engine.dispatched_keys.count(q.key[0]), 1u);

  // Ticket state machine and the typed error.
  for (Ticket k = s1.first; k < s1.first + s1.count; ++k)
    EXPECT_EQ(t.poll(k), QueryState::kDone);
  for (Ticket k = s2.first; k < s2.first + s2.count; ++k) {
    ASSERT_EQ(t.poll(k), QueryState::kShed);
    try {
      (void)t.result(k);
      FAIL() << "expected DeadlineExceededError for shed ticket " << k;
    } catch (const DeadlineExceededError& e) {
      EXPECT_EQ(e.tenant(), "acme");
      EXPECT_EQ(e.dataset(), "books");
      EXPECT_EQ(e.deadline_steps(), slo.deadline_steps);
      EXPECT_GT(e.shed_steps() - e.admitted_steps(), e.deadline_steps());
    }
  }

  // Callbacks: one per query, shed flags exactly on wave 2.
  ASSERT_EQ(events.size(), wave1.size() + wave2.size());
  std::size_t shed_events = 0;
  for (const auto& ev : events) {
    if (ev.shed) ++shed_events;
    EXPECT_EQ(ev.shed, ev.ticket >= s2.first);
    EXPECT_FALSE(ev.failed);
  }
  EXPECT_EQ(shed_events, wave2.size());
}

TEST(Overload, ShedQueriesResolveUpdateBarrier) {
  // An update whose barrier covers only-shed queries must still apply —
  // shed counts as resolved, else the update queue would wedge.
  TreeFixture fx;
  const double spb = fx.steps_per_batch();
  const mesh::CostModel m;
  auto engine = fx.make_engine(m);
  ServiceScheduler svc;
  TenantQuota quota;
  quota.max_outstanding = 4096;
  SloPolicy slo;
  slo.deadline_steps = spb;
  slo.shed_mode = ShedMode::kDeadline;
  TenantSession& t = svc.add_tenant("acme", *engine, quota, slo);

  t.submit(fx.stream(64, 51));
  t.submit_update([&fx] {
    RefreshRequest req;
    req.delta = fx.tree.apply_updates({ds::WeightedKey{700, 1}}, {});
    return req;
  });
  // Everything queued before the update expires before it can run.
  svc.advance_clock_to(svc.now_steps() + slo.deadline_steps + 1.0);
  svc.run_until_idle();
  EXPECT_EQ(t.updates_applied(), 1u);
  EXPECT_EQ(t.report().shed, 64u);
  EXPECT_TRUE(svc.idle());
}

// ---------------------------------------------------------------------------
// Backpressure: submit past max_queue rejects the whole call with a typed
// error carrying a deterministic retry-after hint; nothing is enqueued.
// ---------------------------------------------------------------------------

TEST(Overload, BackpressureRejectsWithRetryAfterHint) {
  const TreeFixture fx;
  const mesh::CostModel m;
  auto engine = fx.make_engine(m);
  ServiceScheduler svc;
  TenantQuota quota;
  quota.max_outstanding = 4096;
  SloPolicy slo;
  slo.max_queue = 10;
  TenantSession& t = svc.add_tenant("acme", *engine, quota, slo);

  const Submission ok = t.submit(fx.stream(8, 61));
  EXPECT_EQ(ok.count, 8u);
  EXPECT_EQ(t.queued(), 8u);

  const auto refused = fx.stream(5, 62);
  try {
    t.submit(refused);
    FAIL() << "expected BackpressureError";
  } catch (const BackpressureError& e) {
    EXPECT_EQ(e.queued(), 8u);
    EXPECT_EQ(e.max_queue(), 10u);
    EXPECT_GT(e.retry_after_steps(), 0.0);
    EXPECT_EQ(e.context().site, "acme");
  }
  // All-or-nothing: the refused call enqueued nothing, and the hint is a
  // CapacityError (retryable) for callers catching the base class.
  EXPECT_EQ(t.queued(), 8u);
  EXPECT_THROW(t.submit(refused), CapacityError);

  const TenantReport rep = t.report();
  EXPECT_EQ(rep.rejected_submissions, 2u);
  EXPECT_EQ(rep.rejected_queries, 10u);
  EXPECT_EQ(rep.rejected_backpressure, 10u);

  // The admitted work drains normally, after which the same call fits.
  svc.run_until_idle();
  EXPECT_EQ(t.submit(refused).count, 5u);
  svc.run_until_idle();
  EXPECT_EQ(t.report().completed, 13u);
}

// ---------------------------------------------------------------------------
// Brownout: with the service over its backlog watermark, a flooding tenant
// whose latency p99 exceeds its target loses quantum; the under-target
// tenant keeps its share and its p99 stays inside policy while the flooder
// sheds.
// ---------------------------------------------------------------------------

TEST(Overload, BrownoutDeprioritizesOverTargetTenantOnly) {
  const TreeFixture fx;
  const std::size_t cap = fx.shape.size();
  const double spb = fx.steps_per_batch();
  const mesh::CostModel m;
  auto engine = fx.make_engine(m);

  ServiceConfig cfg;
  cfg.brownout.watermark_queries = cap;  // any real backlog is "over"
  ServiceScheduler svc(cfg);
  TenantQuota quota;
  quota.max_outstanding = 1u << 20;

  SloPolicy flood_slo;
  flood_slo.deadline_steps = 4 * spb;
  flood_slo.p99_target_steps = 1e-3;  // over target after its first batch
  flood_slo.shed_mode = ShedMode::kDeadline;
  SloPolicy light_slo;
  light_slo.p99_target_steps = 10 * spb;
  TenantSession& flood = svc.add_tenant("flood", *engine, quota, flood_slo);
  TenantSession& light = svc.add_tenant("light", *engine, quota, light_slo);

  // Open loop: each round the flooder offers 4x capacity, the light tenant
  // a sliver. The backlog keeps the service in brownout throughout.
  for (std::uint64_t i = 0; i < 12; ++i) {
    flood.submit(fx.stream(4 * cap, 100 + i));
    light.submit(fx.stream(cap / 8, 200 + i));
    svc.pump();
  }
  svc.run_until_idle();

  const TenantReport frep = flood.report();
  const TenantReport lrep = light.report();
  EXPECT_GT(svc.brownout_rounds(), 0u);
  EXPECT_GT(frep.brownout_deprioritized, 0u);
  EXPECT_EQ(lrep.brownout_deprioritized, 0u);  // never over ITS target
  // The flooder pays: deadline shedding keeps its queue finite.
  EXPECT_GT(frep.shed, 0u);
  // The light tenant is protected: everything served, nothing shed, and its
  // admitted p99 stays inside its own policy target.
  EXPECT_EQ(lrep.shed, 0u);
  EXPECT_EQ(lrep.completed, lrep.submitted);
  EXPECT_LE(lrep.latency_steps.p99(), light_slo.p99_target_steps);
  // Conservation per tenant: completed + shed + failed == submitted.
  EXPECT_EQ(frep.completed + frep.shed + frep.failed_queries, frep.submitted);
  EXPECT_EQ(lrep.completed + lrep.shed + lrep.failed_queries, lrep.submitted);
}

// ---------------------------------------------------------------------------
// Determinism: the full overload pipeline — shedding, backpressure,
// breaker trips/probes, brownout — is a function of the submit/pump
// sequence alone, at 1 vs 8 threads.
// ---------------------------------------------------------------------------

TEST(Overload, OverloadPipelineBitIdenticalAcrossThreads) {
  const TreeFixture fx;
  const std::size_t cap = fx.shape.size();
  const double spb = fx.steps_per_batch();

  struct Record {
    std::vector<QueryOutcome> out;  ///< sentinel rows for shed/failed
    double clock_steps = 0;
    std::uint64_t brownout_rounds = 0;
    std::map<std::string, double> metrics;
  };
  const auto run = [&] {
    trace::TraceRecorder rec("counting");
    mesh::CostModel m;
    m.trace = &rec;
    auto engine = fx.make_engine(m);
    // Threshold 1: the breaker is per ENGINE and bolt's successful batches
    // (same engine, fault-free) reset the streak between acme's faulted
    // turns, so a higher threshold never trips on a tenant-scoped fault.
    engine->breaker().configure(BreakerPolicy{/*failure_threshold=*/1});
    ServiceConfig cfg;
    cfg.brownout.watermark_queries = cap;
    ServiceScheduler svc(cfg, &rec);
    TenantQuota quota;
    quota.max_outstanding = 1u << 20;
    SloPolicy aslo;
    aslo.deadline_steps = 2 * spb;
    aslo.p99_target_steps = 1e-3;
    aslo.max_queue = 6 * cap;
    aslo.shed_mode = ShedMode::kDeadline;
    SloPolicy bslo;
    bslo.p99_target_steps = 12 * spb;
    TenantSession& a = svc.add_tenant("acme", *engine, quota, aslo);
    TenantSession& b = svc.add_tenant("bolt", *engine, quota, bslo);

    // Faults on acme trip the breaker mid-trace; the plan is rebuilt per
    // run from the same config, so the fault schedule is pinned too.
    mesh::FaultConfig fcfg;
    fcfg.seed = 29;
    fcfg.p_phase = 1.0;
    fcfg.max_retries = 0;
    fcfg.max_replans = 0;
    mesh::FaultPlan plan(fcfg);

    std::size_t backpressured = 0;
    const auto offer = [&](TenantSession& t, std::vector<Query> qs) {
      try {
        t.submit(std::move(qs));
      } catch (const BackpressureError&) {
        ++backpressured;
      }
    };
    for (std::uint64_t i = 0; i < 6; ++i) {
      offer(a, fx.stream(3 * cap, 300 + i));
      offer(b, fx.stream(cap / 4, 400 + i));
      if (i == 2) a.set_fault(&plan);   // breaker trips here...
      if (i == 4) a.set_fault(nullptr); // ...and recovers via probe here
      svc.pump();
      expect_counts_consistent(a);
      expect_counts_consistent(b);
    }
    while (!svc.idle()) {
      svc.pump();
      expect_counts_consistent(a);
      expect_counts_consistent(b);
    }
    svc.export_metrics();

    Record r;
    for (const TenantSession* t : {&a, &b})
      for (Ticket k = 0; k < t->submitted(); ++k) {
        if (t->poll(k) == QueryState::kDone) {
          const Query& q = t->result(k);
          r.out.push_back(QueryOutcome{q.steps, q.acc0, q.acc1, q.result});
        } else {
          // kShed/kFailed have no answer; pin WHICH state as a sentinel.
          const auto s = static_cast<std::int32_t>(t->poll(k));
          r.out.push_back(QueryOutcome{-s, -1, -1, -1});
        }
      }
    r.clock_steps = svc.now_steps();
    r.brownout_rounds = svc.brownout_rounds();
    for (const auto& mt : rec.stats().snapshot().gauges)
      r.metrics[mt.name] = mt.value;
    r.metrics["harness.backpressured"] = static_cast<double>(backpressured);
    return r;
  };

  util::ThreadPool::set_global_threads(1);
  const Record serial = run();
  util::ThreadPool::set_global_threads(8);
  const Record parallel = run();
  util::ThreadPool::set_global_threads(0);

  EXPECT_EQ(diff_outcomes(serial.out, parallel.out), "");
  EXPECT_EQ(serial.clock_steps, parallel.clock_steps);  // exact
  EXPECT_EQ(serial.brownout_rounds, parallel.brownout_rounds);
  EXPECT_EQ(serial.metrics.size(), parallel.metrics.size());
  EXPECT_TRUE(serial.metrics == parallel.metrics)
      << "overload metrics diverged across thread counts";
  // Sanity: the pinned trace really exercised every mechanism.
  EXPECT_GT(serial.metrics.at("tenant.acme.shed"), 0.0);
  EXPECT_GT(serial.metrics.at("service.breaker.books_alg2-alpha.trips"), 0.0);
  EXPECT_GT(serial.metrics.at("service.breaker.books_alg2-alpha.recoveries"),
            0.0);
  EXPECT_GT(serial.metrics.at("service.brownout_rounds"), 0.0);
  EXPECT_GT(serial.metrics.at("tenant.bolt.completed"), 0.0);
}

// ---------------------------------------------------------------------------
// BatchSource::pop_expired: exact prefix popping across batch boundaries,
// partial fronts, and the pending-queries invariant.
// ---------------------------------------------------------------------------

TEST(Overload, PopExpiredTakesPrefixAcrossBatches) {
  BatchSource src;
  src.enqueue({0, 1, 2});
  src.enqueue({3, 4});
  src.enqueue({5, 6, 7});
  ASSERT_EQ(src.pending_queries(), 8u);

  // Expire positions < 4: spans all of batch 0 and half of batch 1.
  const auto first = src.pop_expired([](std::uint32_t i) { return i < 4; });
  EXPECT_EQ(first, (std::vector<std::uint32_t>{0, 1, 2, 3}));
  EXPECT_EQ(src.pending_queries(), 4u);
  EXPECT_EQ(src.pending_batches(), 2u);  // batch 0 dropped, batch 1 trimmed

  // Nothing expired: a no-op that touches nothing.
  const auto none = src.pop_expired([](std::uint32_t) { return false; });
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(src.pending_queries(), 4u);

  // The predicate only sees the prefix: position 4 is live, so 5..7 are
  // never consulted even if "expired" (admission order guarantees they are
  // younger — the service's deadline predicate is monotone).
  const auto stop = src.pop_expired([](std::uint32_t i) { return i >= 5; });
  EXPECT_TRUE(stop.empty());

  // Everything expired drains the source.
  const auto rest = src.pop_expired([](std::uint32_t) { return true; });
  EXPECT_EQ(rest, (std::vector<std::uint32_t>{4, 5, 6, 7}));
  EXPECT_TRUE(src.empty());
  EXPECT_EQ(src.pending_queries(), 0u);
}

}  // namespace
