// E12 — overload protection: deadlines, shedding, backpressure, brownout.
//
// Claim (service/scheduler.hpp, DESIGN.md decision 17): with a per-tenant
// SloPolicy armed, the multi-tenant service survives any offered-load
// multiple of its saturation rate while (a) every admitted-and-dispatched
// query's latency p99 stays inside the tenant's target, (b) goodput holds
// near the saturation rate instead of collapsing under queue growth, and
// (c) nothing is silently lost: per tenant,
//
//     offered == admitted + rejected          (backpressure is loud)
//     admitted == completed + failed + shed   (shed/failed are reported)
//
// Both identities are checked in-binary per sweep point ("VIOLATION" on
// stdout fails the eye; the pinned tables fail the gate).
//
// Sweep: offered-load multiplier {1x .. 8x} saturation x shed policy
// {none, deadline} x all four engine kinds, two tenants, the same
// open-loop Poisson-burst generator as E10 (arrivals ride the virtual
// clock and are never throttled by completions). The contrast the tables
// show:
//
//   * shed=none: at 1x, latency is a small multiple of one batch; past
//     saturation the backlog — and so p99 — grows with the load multiple
//     (there is no finite p99 target an unprotected tenant can hold).
//   * shed=deadline: dispatched queue wait is bounded by deadline_steps at
//     pop time (expired queries are a front prefix, shed before any engine
//     work), so admitted p99 <= deadline + one batch at EVERY load, while
//     backpressure (max_queue) bounds the queue and goodput stays at the
//     service rate — the "goodput holds" check pins
//     goodput(8x) >= 0.5 * goodput(1x).
//
// Two showcase tables follow the sweep: brownout (an over-target flooder
// loses DRR quantum while an in-target tenant's p99 stays inside policy)
// and the per-engine circuit breaker (trip -> fail-fast -> half-open probe
// -> recovery, with the service.breaker.* counters). Everything runs on
// the virtual step clock, so every number here is a deterministic function
// of the submit/pump sequence — safe to pin in the bench-gate baseline.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "mesh/fault.hpp"
#include "multisearch/query.hpp"
#include "service/breaker.hpp"
#include "service/engine.hpp"
#include "service/scheduler.hpp"
#include "service/tenant.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

using namespace meshsearch;
using namespace meshsearch::msearch;
using namespace meshsearch::service;
using ds::KaryTree;
using ds::TreeMode;

namespace {

/// A burst-stream factory: `make(count, seed)` returns `count` queries for
/// the engine's structure, deterministically derived from `seed`.
using StreamFn =
    std::function<std::vector<Query>(std::size_t, std::uint64_t)>;

struct EngineCase {
  EngineKey key;
  Engine* engine = nullptr;
  StreamFn make;
  double steps_per_batch = 0;  ///< calibrated: one full-capacity warm batch
};

struct ArrivalEvent {
  double at_steps = 0;
  std::size_t tenant = 0;
};

struct PointResult {
  double load = 0;
  ShedMode mode = ShedMode::kNone;
  std::int64_t offered = 0;
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;   ///< backpressure at submit (max_queue)
  std::int64_t shed = 0;       ///< deadline-expired, resolved before dispatch
  std::int64_t completed = 0;
  double p99 = 0;         ///< admitted latency, simulated steps
  double p99_target = 0;  ///< 0 = no target (shed=none rows)
  double goodput = 0;     ///< completed queries per 1000 steps
};

/// Steps one full-capacity batch charges on this warm engine — the unit
/// deadlines and the load multiplier are expressed against.
double calibrate_batch_steps(EngineCase& ec) {
  ServiceScheduler sched;
  auto& t = sched.add_tenant(
      "calibrate", *ec.engine,
      TenantQuota{.max_outstanding = ec.engine->capacity()});
  t.submit(ec.make(ec.engine->capacity(), /*seed=*/9));
  sched.run_until_idle();
  return sched.now_steps();
}

/// One sweep point: two tenants, Poisson bursts of capacity/2 queries at
/// aggregate offered rate = `load` x the engine's service rate. With
/// mode=kDeadline both tenants run under the same overload policy:
/// deadline 6 batches, p99 target = deadline + 2 batches of dispatch
/// margin, backpressure at 6 full batches of queue.
PointResult run_point(EngineCase& ec, double load, ShedMode mode,
                      std::size_t bursts, std::uint64_t seed) {
  const std::size_t tenants = 2;
  const std::size_t cap = ec.engine->capacity();
  const std::size_t burst = std::max<std::size_t>(1, cap / 2);
  const double mean_gap = static_cast<double>(tenants) *
                          static_cast<double>(burst) * ec.steps_per_batch /
                          (static_cast<double>(cap) * load);

  std::vector<ArrivalEvent> events;
  for (std::size_t t = 0; t < tenants; ++t) {
    util::Rng rng(seed * 131 + t);
    double at = 0;
    for (std::size_t b = 0; b < bursts; ++b) {
      at += -std::log(1.0 - rng.uniform_real()) * mean_gap;
      events.push_back({at, t});
    }
  }
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.at_steps != b.at_steps) return a.at_steps < b.at_steps;
    return a.tenant < b.tenant;
  });

  SloPolicy slo;
  if (mode == ShedMode::kDeadline) {
    slo.deadline_steps = 6 * ec.steps_per_batch;
    slo.p99_target_steps = slo.deadline_steps + 2 * ec.steps_per_batch;
    slo.max_queue = 12 * burst;
    slo.shed_mode = ShedMode::kDeadline;
  }

  ServiceScheduler sched;  // DRR, the policy brownout/fairness assume
  std::vector<TenantSession*> sessions;
  for (std::size_t t = 0; t < tenants; ++t)
    sessions.push_back(&sched.add_tenant(
        "tenant" + std::to_string(t), *ec.engine,
        TenantQuota{.max_outstanding = bursts * burst + cap}, slo));

  std::uint64_t qseed = seed * 977;
  for (const auto& ev : events) {
    while (!sched.idle() && sched.now_steps() < ev.at_steps) sched.pump();
    if (sched.now_steps() < ev.at_steps) sched.advance_clock_to(ev.at_steps);
    auto qs = ec.make(burst, ++qseed);
    try {
      sessions[ev.tenant]->submit(std::move(qs));
    } catch (const BackpressureError&) {
      // Loud, all-or-nothing, and counted in the tenant's report — the
      // open loop drops the burst, exactly what a backing-off client does.
    }
  }
  sched.run_until_idle();

  PointResult pt;
  pt.load = load;
  pt.mode = mode;
  pt.p99_target = slo.p99_target_steps;
  util::LogHistogram latency;
  const std::int64_t offered_per_tenant =
      static_cast<std::int64_t>(bursts * burst);
  for (const auto& rep : sched.reports()) {
    latency.merge(rep.latency_steps);
    pt.offered += offered_per_tenant;
    pt.admitted += static_cast<std::int64_t>(rep.submitted);
    pt.rejected += static_cast<std::int64_t>(rep.rejected_queries);
    pt.shed += static_cast<std::int64_t>(rep.shed);
    pt.completed += static_cast<std::int64_t>(rep.completed);
    // Conservation, per tenant: backpressure rejections and sheds are
    // reported, never silent.
    if (static_cast<std::int64_t>(rep.submitted + rep.rejected_queries) !=
        offered_per_tenant)
      std::cout << "VIOLATION: " << rep.tenant
                << " offered != admitted + rejected at load " << load << "\n";
    if (rep.completed + rep.failed_queries + rep.shed != rep.submitted)
      std::cout << "VIOLATION: " << rep.tenant
                << " admitted != completed + failed + shed at load " << load
                << "\n";
    if (mode == ShedMode::kNone &&
        (rep.rejected_queries != 0 || rep.shed != 0))
      std::cout << "VIOLATION: unprotected tenant " << rep.tenant
                << " rejected or shed queries at load " << load << "\n";
  }
  pt.p99 = latency.p99();
  pt.goodput = 1000.0 * static_cast<double>(pt.completed) /
               std::max(1.0, sched.now_steps());
  // The SLO gate: with deadline shedding armed, dispatched queue wait is
  // bounded at pop time, so admitted p99 must sit inside the target at ANY
  // overload multiple.
  if (mode == ShedMode::kDeadline && pt.completed > 0 &&
      pt.p99 > pt.p99_target)
    std::cout << "VIOLATION: admitted p99 " << pt.p99 << " over target "
              << pt.p99_target << " at load " << load << "\n";
  return pt;
}

void report(const EngineCase& ec, const std::vector<PointResult>& pts) {
  const std::string name = engine_key_name(ec.key);
  util::Table t({"load", "shed", "offered", "admitted", "rejected",
                 "shed q", "completed", "lat p99", "p99 target", "q/kstep"});
  for (const auto& pt : pts)
    t.add_row({pt.load, std::string(shed_mode_name(pt.mode)), pt.offered,
               pt.admitted, pt.rejected, pt.shed, pt.completed, pt.p99,
               pt.p99_target, pt.goodput});
  bench::section("E12: " + name + " (steps/batch = " +
                 std::to_string(ec.steps_per_batch) + ")");
  std::string csv = "e12_" + name;
  for (auto& c : csv)
    if (c == '/') c = '_';
  bench::emit(t, csv);

  // Goodput holds under overload: the most-loaded deadline point must keep
  // at least half the least-loaded deadline point's goodput (in fact it
  // stays at the saturation rate; 0.5 absorbs drain-phase edge effects).
  const PointResult* lo = nullptr;
  const PointResult* hi = nullptr;
  for (const auto& pt : pts) {
    if (pt.mode != ShedMode::kDeadline) continue;
    if (lo == nullptr || pt.load < lo->load) lo = &pt;
    if (hi == nullptr || pt.load > hi->load) hi = &pt;
  }
  if (lo != nullptr && hi != nullptr && hi->goodput < 0.5 * lo->goodput)
    std::cout << "VIOLATION: " << name << " goodput collapsed under overload ("
              << hi->goodput << " at " << hi->load << "x vs " << lo->goodput
              << " at " << lo->load << "x)\n";
}

/// Brownout showcase: a flooding tenant (p99 target it can never meet) and
/// a light in-target tenant share one engine past the backlog watermark.
/// The flooder loses quantum and sheds; the light tenant's admitted p99
/// stays inside ITS policy. Same shape as the Overload.Brownout test, at
/// bench scale and pinned in the baseline.
void brownout_showcase(bool smoke) {
  KaryTree tree(ds::iota_keys(500), 3, TreeMode::kDirected);
  const auto shape = tree.graph().shape_for(tree.graph().vertex_count());
  const std::size_t cap = shape.size();
  const mesh::CostModel m;
  auto engine = make_partitioned_engine(
      EngineKind::kAlg2Alpha, tree.graph(), tree.alpha_splitting(),
      tree.alpha_splitting(), tree.rank_count(), m, shape);
  engine->set_dataset("books");
  const StreamFn make = [](std::size_t mq, std::uint64_t seed) {
    util::Rng rng(seed);
    return ds::uniform_key_queries(mq, 520, rng);
  };
  EngineCase scratch;
  scratch.key = {"books", EngineKind::kAlg2Alpha};
  scratch.engine = engine.get();
  scratch.make = make;
  const double spb = calibrate_batch_steps(scratch);

  ServiceConfig cfg;
  cfg.brownout.watermark_queries = cap;
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

  const std::uint64_t rounds = smoke ? 10 : 24;
  for (std::uint64_t i = 0; i < rounds; ++i) {
    flood.submit(make(4 * cap, 100 + i));
    light.submit(make(cap / 8, 200 + i));
    svc.pump();
  }
  svc.run_until_idle();

  util::Table t({"tenant", "submitted", "completed", "shed", "deprio rounds",
                 "lat p99", "p99 target"});
  for (const auto& rep : svc.reports()) {
    const double target = svc.tenant(rep.tenant).slo().p99_target_steps;
    t.add_row({rep.tenant, static_cast<std::int64_t>(rep.submitted),
               static_cast<std::int64_t>(rep.completed),
               static_cast<std::int64_t>(rep.shed),
               static_cast<std::int64_t>(rep.brownout_deprioritized),
               rep.latency_steps.p99(), target});
  }
  bench::section("E12: brownout (" + std::to_string(svc.brownout_rounds()) +
                 "/" + std::to_string(svc.rounds()) + " rounds browned out)");
  bench::emit(t, "e12_brownout");

  const TenantReport lrep = light.report();
  if (lrep.latency_steps.p99() > light_slo.p99_target_steps)
    std::cout << "VIOLATION: brownout failed to protect the in-target "
                 "tenant's p99\n";
  if (lrep.brownout_deprioritized != 0)
    std::cout << "VIOLATION: brownout deprioritized a tenant inside its "
                 "target\n";
  const TenantReport frep = flood.report();
  if (frep.brownout_deprioritized == 0 || svc.brownout_rounds() == 0)
    std::cout << "VIOLATION: brownout never engaged against the flooder\n";
}

/// Circuit-breaker showcase: a faulting tenant trips the shared engine's
/// breaker (threshold 1); the co-resident tenant's queries fail fast with
/// zero charge until the engine heals and the half-open probe recovers.
/// The table is the service.breaker.* counter family.
void breaker_showcase() {
  KaryTree tree(ds::iota_keys(500), 3, TreeMode::kDirected);
  const auto shape = tree.graph().shape_for(tree.graph().vertex_count());
  const std::size_t cap = shape.size();
  const mesh::CostModel m;
  auto engine = make_partitioned_engine(
      EngineKind::kAlg2Alpha, tree.graph(), tree.alpha_splitting(),
      tree.alpha_splitting(), tree.rank_count(), m, shape);
  engine->set_dataset("books");
  engine->breaker().configure(BreakerPolicy{/*failure_threshold=*/1});
  const StreamFn make = [](std::size_t mq, std::uint64_t seed) {
    util::Rng rng(seed);
    return ds::uniform_key_queries(mq, 520, rng);
  };

  ServiceScheduler svc;
  TenantQuota quota;
  quota.max_outstanding = 16 * cap;
  TenantSession& sick = svc.add_tenant("sick", *engine, quota);
  TenantSession& bystander = svc.add_tenant("bystander", *engine, quota);

  // Every one of sick's attempts faults, with no retry or re-plan budget:
  // the first dispatch trips the breaker, and the bystander's slices in the
  // same round fail fast.
  mesh::FaultConfig fcfg;
  fcfg.seed = 17;
  fcfg.p_phase = 1.0;
  fcfg.max_retries = 0;
  fcfg.max_replans = 0;
  mesh::FaultPlan plan(fcfg);
  sick.set_fault(&plan);
  sick.submit(make(cap / 2, 41));
  bystander.submit(make(cap / 2, 42));
  svc.pump();

  // The engine heals; the next round's first dispatch is the probe.
  sick.set_fault(nullptr);
  sick.submit(make(cap / 2, 43));
  bystander.submit(make(cap / 2, 44));
  svc.run_until_idle();

  const auto& c = engine->breaker().counters();
  util::Table t({"counter", "value"});
  t.add_row({std::string("trips"), static_cast<std::int64_t>(c.trips)});
  t.add_row({std::string("probes"), static_cast<std::int64_t>(c.probes)});
  t.add_row({std::string("recoveries"),
             static_cast<std::int64_t>(c.recoveries)});
  t.add_row({std::string("fail_fast_batches"),
             static_cast<std::int64_t>(c.fail_fast_batches)});
  t.add_row({std::string("fail_fast_queries"),
             static_cast<std::int64_t>(c.fail_fast_queries)});
  bench::section("E12: circuit breaker (books/alg2-alpha, threshold 1)");
  bench::emit(t, "e12_breaker");

  if (c.trips == 0 || c.recoveries == 0)
    std::cout << "VIOLATION: breaker never tripped or never recovered\n";
  if (engine->breaker().state() != BreakerState::kClosed)
    std::cout << "VIOLATION: breaker not closed after the engine healed\n";
  const TenantReport brep = bystander.report();
  if (brep.failed_fast == 0 || brep.completed == 0)
    std::cout << "VIOLATION: bystander missing fail-fast or recovery "
                 "completions\n";
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport breport("e12_overload", argc, argv);
  // --smoke: smaller structures, fewer bursts, endpoint loads only — still
  // both shed policies, all four engines, and both showcases.
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  if (smoke) breport.set_config("smoke", "1");
  const std::size_t dag_n = smoke ? (1 << 10) : (1 << 12);
  const std::size_t tree2_n = smoke ? (1 << 8) : (1 << 10);
  const std::size_t tree3_n = smoke ? (1 << 8) : (1 << 9);
  const std::size_t bursts = smoke ? 16 : 32;
  const std::vector<double> loads = smoke
                                        ? std::vector<double>{1.0, 8.0}
                                        : std::vector<double>{1.0, 2.0, 4.0,
                                                              8.0};
  breport.set_config("bursts", std::to_string(bursts));

  // One registry of warm engines for the whole sweep (setup paid once per
  // structure) — the same four cases as E10.
  util::Rng rng(41);
  const auto g = ds::build_hierarchical_dag(dag_n, 2.0, 3, rng);
  const HierarchicalDag dag(g, 2.0);
  const auto shape = g.shape_for(g.vertex_count());
  const mesh::CostModel m;
  KaryTree tree2(ds::iota_keys(tree2_n), 3, TreeMode::kDirected);
  const auto shape2 = tree2.graph().shape_for(tree2.graph().vertex_count());
  KaryTree tree3(ds::iota_keys(tree3_n), 2, TreeMode::kUndirected);
  const auto shape3 = tree3.graph().shape_for(tree3.graph().vertex_count());
  const auto [s1, s2] = tree3.alpha_beta_splittings();

  EngineRegistry registry;
  registry.add({"hier", EngineKind::kAlg1Paper},
               make_hierarchical_engine(dag, PlanKind::kPaper, ds::HashWalk{0},
                                        m, shape));
  registry.add({"hier", EngineKind::kAlg1Geometric},
               make_hierarchical_engine(dag, PlanKind::kGeometric,
                                        ds::HashWalk{0}, m, shape));
  registry.add({"tree2", EngineKind::kAlg2Alpha},
               make_partitioned_engine(EngineKind::kAlg2Alpha, tree2.graph(),
                                       tree2.alpha_splitting(),
                                       tree2.alpha_splitting(),
                                       tree2.rank_count(), m, shape2));
  registry.add({"tree3", EngineKind::kAlg3AlphaBeta},
               make_partitioned_engine(EngineKind::kAlg3AlphaBeta,
                                       tree3.graph(), s1, s2,
                                       tree3.euler_scan(), m, shape3));

  const StreamFn alg1_stream = [](std::size_t mq, std::uint64_t seed) {
    auto qs = make_queries(mq);
    util::Rng qrng(seed);
    for (auto& q : qs)
      q.key[0] = static_cast<std::int64_t>(qrng.uniform(1ull << 40));
    return qs;
  };
  const StreamFn alg2_stream = [tree2_n](std::size_t mq, std::uint64_t seed) {
    util::Rng qrng(seed);
    return ds::uniform_key_queries(mq, tree2_n + 20, qrng);
  };
  const StreamFn alg3_stream = [tree3_n](std::size_t mq, std::uint64_t seed) {
    auto qs = make_queries(mq);
    util::Rng qrng(seed);
    for (auto& q : qs) {
      const auto a =
          qrng.uniform_range(-3, static_cast<std::int64_t>(tree3_n) + 3);
      q.key[0] = a;
      q.key[1] = a + qrng.uniform_range(0, 30);
    }
    return qs;
  };

  const std::vector<std::pair<EngineKey, StreamFn>> case_specs = {
      {{"hier", EngineKind::kAlg1Paper}, alg1_stream},
      {{"hier", EngineKind::kAlg1Geometric}, alg1_stream},
      {{"tree2", EngineKind::kAlg2Alpha}, alg2_stream},
      {{"tree3", EngineKind::kAlg3AlphaBeta}, alg3_stream},
  };
  std::vector<EngineCase> cases;
  for (const auto& [key, fn] : case_specs) {
    EngineCase ec;
    ec.key = key;
    ec.engine = &registry.at(key);
    ec.make = fn;
    cases.push_back(std::move(ec));
  }

  std::uint64_t point_seed = 300;
  for (auto& ec : cases) {
    ec.steps_per_batch = calibrate_batch_steps(ec);
    std::vector<PointResult> pts;
    for (const double load : loads)
      for (const auto mode : {ShedMode::kNone, ShedMode::kDeadline}) {
        const auto wall = bench::time_point("e12.sweep_point");
        pts.push_back(run_point(ec, load, mode, bursts, ++point_seed));
      }
    report(ec, pts);
  }

  brownout_showcase(smoke);
  breaker_showcase();
  return 0;
}
