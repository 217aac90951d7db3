// E10 — multi-tenant service SLOs: open-loop load on warm engines.
//
// Claim (service/scheduler.hpp): a registry of warm engines plus a
// deficit-round-robin ServiceScheduler serves many tenants from one mesh
// with per-tenant latency that degrades gracefully as offered load crosses
// saturation. The load generator is OPEN-LOOP: each tenant's bursts arrive
// on a Poisson process over the service's virtual clock regardless of how
// far behind the service is — arrivals are never throttled by completions,
// so queue wait is an honest function of (offered load / service rate).
//
// Sweep: offered-load multiplier x tenant count x scheduling policy, for
// all four engine kinds. Per point we report p50/p95/p99 completion
// latency, p95 queue wait (both in simulated mesh steps, merged across
// tenants) and saturation throughput (completed queries per 1000 steps).
// Everything in the tables is a deterministic function of the arrival
// trace and the pump sequence — the virtual clock never reads wall time —
// so the bench gate pins these values exactly. Expectations:
//
//   * load 0.5: queue wait is a small multiple of one batch's steps and
//     throughput tracks the offered rate.
//   * load 2.0: throughput plateaus at the engine's service rate (that IS
//     the saturation measurement) and latency grows with backlog depth.
//   * drr vs exhaustive: identical totals — with uniform tenants the
//     policies differ in interleaving, not in work.
//
// `--trace <prefix>` additionally dumps one showcase point (Algorithm 1
// paper plan, two tenants) with the recorder wired, whose attribution
// table ends with the tenant.* metric families from export_metrics().
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "multisearch/query.hpp"
#include "service/engine.hpp"
#include "service/scheduler.hpp"
#include "service/tenant.hpp"
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
  std::size_t tenants = 0;
  double load = 0;
  SchedulePolicy policy = SchedulePolicy::kDeficitRoundRobin;
  double p50 = 0, p95 = 0, p99 = 0;  ///< latency, simulated steps
  double qwait_p95 = 0;              ///< queue wait, simulated steps
  double throughput = 0;             ///< completed queries per 1000 steps
  std::int64_t submitted = 0;
  std::int64_t completed = 0;
};

/// Steps one full-capacity batch charges on this warm engine — the unit
/// the load multiplier is expressed against (service rate = capacity /
/// steps_per_batch queries per step).
double calibrate_batch_steps(EngineCase& ec) {
  ServiceScheduler sched;
  auto& t = sched.add_tenant(
      "calibrate", *ec.engine,
      TenantQuota{.max_outstanding = ec.engine->capacity()});
  t.submit(ec.make(ec.engine->capacity(), /*seed=*/9));
  sched.run_until_idle();
  return sched.now_steps();
}

/// One sweep point: `tenants` uniform tenants each submitting `bursts`
/// Poisson-spaced bursts of capacity/2 queries, aggregate offered load =
/// `load` x the engine's service rate. Open loop: the event list is fixed
/// up front; the service pumps between arrivals and drains afterwards.
PointResult run_point(EngineCase& ec, std::size_t tenants, double load,
                      SchedulePolicy policy, std::size_t bursts,
                      std::uint64_t seed) {
  const std::size_t cap = ec.engine->capacity();
  const std::size_t burst = std::max<std::size_t>(1, cap / 2);
  // Aggregate offered rate = tenants * burst / mean_gap queries/step;
  // setting it to load * (cap / steps_per_batch) gives the per-tenant gap:
  const double mean_gap = static_cast<double>(tenants) *
                          static_cast<double>(burst) * ec.steps_per_batch /
                          (static_cast<double>(cap) * load);

  std::vector<ArrivalEvent> events;
  for (std::size_t t = 0; t < tenants; ++t) {
    util::Rng rng(seed * 131 + t);
    double at = 0;
    for (std::size_t b = 0; b < bursts; ++b) {
      // Exponential inter-arrival; 1-u keeps the argument strictly positive.
      at += -std::log(1.0 - rng.uniform_real()) * mean_gap;
      events.push_back({at, t});
    }
  }
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    if (a.at_steps != b.at_steps) return a.at_steps < b.at_steps;
    return a.tenant < b.tenant;
  });

  ServiceConfig cfg;
  cfg.policy = policy;
  ServiceScheduler sched(cfg);
  std::vector<TenantSession*> sessions;
  for (std::size_t t = 0; t < tenants; ++t)
    sessions.push_back(&sched.add_tenant(
        "tenant" + std::to_string(t), *ec.engine,
        TenantQuota{.max_outstanding = bursts * burst + cap}));

  std::uint64_t qseed = seed * 977;
  for (const auto& ev : events) {
    // Serve whatever is pending until the clock catches up to the arrival;
    // if the service goes idle first, the gap is idle time.
    while (!sched.idle() && sched.now_steps() < ev.at_steps) sched.pump();
    if (sched.now_steps() < ev.at_steps) sched.advance_clock_to(ev.at_steps);
    sessions[ev.tenant]->submit(ec.make(burst, ++qseed));
  }
  sched.run_until_idle();

  PointResult pt;
  pt.tenants = tenants;
  pt.load = load;
  pt.policy = policy;
  util::LogHistogram latency, qwait;
  for (const auto& rep : sched.reports()) {
    latency.merge(rep.latency_steps);
    qwait.merge(rep.queue_wait_steps);
    pt.submitted += static_cast<std::int64_t>(rep.submitted);
    pt.completed += static_cast<std::int64_t>(rep.completed);
    if (rep.failed_queries != 0 || rep.rejected_queries != 0)
      std::cout << "VIOLATION: fault-free open loop lost queries (tenant "
                << rep.tenant << ")\n";
  }
  pt.p50 = latency.p50();
  pt.p95 = latency.p95();
  pt.p99 = latency.p99();
  pt.qwait_p95 = qwait.p95();
  pt.throughput = 1000.0 * static_cast<double>(pt.completed) /
                  std::max(1.0, sched.now_steps());
  return pt;
}

void report(const EngineCase& ec, const std::vector<PointResult>& pts) {
  const std::string name = engine_key_name(ec.key);
  util::Table t({"tenants", "load", "policy", "lat p50", "lat p95",
                 "lat p99", "qwait p95", "q/kstep", "completed"});
  for (const auto& pt : pts)
    t.add_row({static_cast<std::int64_t>(pt.tenants), pt.load,
               std::string(schedule_policy_name(pt.policy)), pt.p50, pt.p95,
               pt.p99, pt.qwait_p95, pt.throughput, pt.completed});
  bench::section("E10: " + name + " (steps/batch = " +
                 std::to_string(ec.steps_per_batch) + ")");
  std::string csv = "e10_" + name;
  for (auto& c : csv)
    if (c == '/') c = '_';
  bench::emit(t, csv);
  for (const auto& pt : pts)
    if (pt.completed != pt.submitted)
      std::cout << "VIOLATION: " << name << " left queries unresolved at "
                << pt.tenants << " tenants, load " << pt.load << "\n";
}

/// Showcase trace: two tenants on one warm Algorithm-1 engine with the
/// recorder wired, so emit_trace's attribution table ends with the
/// tenant.<name>.* metric families and the service.* totals.
void showcase(const bench::TraceOptions& topt) {
  if (!topt.enabled) return;
  util::Rng rng(7);
  const auto g = ds::build_hierarchical_dag(1 << 10, 2.0, 3, rng);
  const HierarchicalDag dag(g, 2.0);
  const auto shape = g.shape_for(g.vertex_count());
  bench::TracedModel tm(topt);
  auto engine = make_hierarchical_engine(dag, PlanKind::kPaper,
                                         ds::HashWalk{0}, tm.model, shape);
  ServiceScheduler sched(ServiceConfig{}, &tm.rec);
  const TenantQuota quota{.max_outstanding = engine->capacity()};
  auto& a = sched.add_tenant("acme", *engine, quota);
  auto& b = sched.add_tenant("bolt", *engine, quota);
  const auto burst = [&](std::uint64_t seed) {
    auto qs = make_queries(engine->capacity());
    util::Rng qrng(seed);
    for (auto& q : qs)
      q.key[0] = static_cast<std::int64_t>(qrng.uniform(1ull << 40));
    return qs;
  };
  a.submit(burst(81));
  b.submit(burst(82));
  sched.run_until_idle();
  sched.export_metrics();
  bench::emit_trace(tm.rec, topt, "e10_showcase_two_tenants");
  if (bench::BenchReport* report = bench::BenchReport::active())
    report->add_wall_from(tm.rec);
}

}  // namespace

int main(int argc, char** argv) {
  const auto topt = bench::parse_trace_flag(argc, argv);
  bench::BenchReport breport("e10_service", argc, argv);
  // --smoke: smaller structures and fewer bursts for the CI bench gate —
  // still all four engines, both policies, and 2 and 4 tenants.
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  if (smoke) breport.set_config("smoke", "1");
  const std::size_t dag_n = smoke ? (1 << 10) : (1 << 12);
  const std::size_t tree2_n = smoke ? (1 << 8) : (1 << 10);
  const std::size_t tree3_n = smoke ? (1 << 8) : (1 << 9);
  const std::size_t bursts = smoke ? 8 : 24;
  const std::vector<double> loads =
      smoke ? std::vector<double>{0.5, 2.0}
            : std::vector<double>{0.5, 0.9, 2.0};
  const std::vector<std::size_t> tenant_counts{2, 4};
  breport.set_config("bursts", std::to_string(bursts));

  // One registry of warm engines for the whole sweep: setup is paid here,
  // once per structure, and every sweep point below is warm-only work.
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

  std::uint64_t point_seed = 100;
  for (auto& ec : cases) {
    ec.steps_per_batch = calibrate_batch_steps(ec);
    std::vector<PointResult> pts;
    for (const std::size_t tenants : tenant_counts)
      for (const double load : loads)
        for (const auto policy : {SchedulePolicy::kDeficitRoundRobin,
                                  SchedulePolicy::kExhaustive}) {
          const auto wall = bench::time_point("e10.sweep_point");
          pts.push_back(
              run_point(ec, tenants, load, policy, bursts, ++point_seed));
        }
    report(ec, pts);
  }

  showcase(topt);
  return 0;
}
